package dist

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// stallEndpoint builds a worker that swallows every frame and never answers —
// a hung process, not a dead one. Only a deadline can unmask it.
func stallEndpoint() Endpoint {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	go func() {
		for {
			if _, _, err := wio.ReadFrame(jobR, nil); err != nil {
				resW.CloseWithError(err)
				return
			}
		}
	}()
	return Endpoint{
		W:    jobW,
		R:    resR,
		Kill: func() { jobW.CloseWithError(io.ErrClosedPipe); resR.CloseWithError(io.ErrClosedPipe) },
	}
}

// TestStalledWorkerDeadline: without a timeout a stalled worker would hang
// RealizeAll forever; with one armed the coordinator declares it dead,
// counts the missed heartbeat, reassigns the window and still produces
// bit-identical metrics.
func TestStalledWorkerDeadline(t *testing.T) {
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 60, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{stallEndpoint(), liveEndpoint()})
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.Obs = reg
	coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 150 * time.Millisecond}
	done := make(chan struct{})
	var got []sim.Metrics
	var evalErr error
	go func() {
		got, evalErr = coord.EvaluateAll(ss, opt, rng.New(9))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("EvaluateAll hung on a stalled worker despite the deadline")
	}
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ after stalled-worker reassignment", j)
		}
	}
	if n := reg.Counter("dist.heartbeat_misses").Value(); n == 0 {
		t.Error("expected a heartbeat miss for the stalled worker")
	}
	if n := reg.Counter("dist.worker_deaths").Value(); n == 0 {
		t.Error("expected the stalled worker to be declared dead")
	}
}

// scriptedEndpoint runs fn against the coordinator side of a pipe pair:
// fn reads job frames from r and writes response frames to w.
func scriptedEndpoint(fn func(r io.Reader, w *io.PipeWriter)) Endpoint {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	go fn(jobR, resW)
	return Endpoint{
		W:    jobW,
		R:    resR,
		Kill: func() { jobW.CloseWithError(io.ErrClosedPipe); resR.CloseWithError(io.ErrClosedPipe) },
	}
}

// scriptedSimWorker serves the sim range protocol with a scripted compute
// step in place of the real engine: it binds each KSimSetup, and for each
// KSimRange runs compute (which may pulse heartbeats on w) and then answers
// with an all-zero vector per schedule — unless compute reports the stream
// gone. Other frames (Close's KShutdown) are drained until teardown.
func scriptedSimWorker(compute func(w io.Writer) bool) func(r io.Reader, w *io.PipeWriter) {
	return func(r io.Reader, w *io.PipeWriter) {
		var su SimSetup
		for {
			kind, payload, err := wio.ReadFrame(r, nil)
			if err != nil {
				w.CloseWithError(err)
				return
			}
			switch kind {
			case KSimSetup:
				err = parseJSON(payload, &su)
			case KSimRange:
				var req SimRange
				if err = parseJSON(payload, &req); err != nil {
					break
				}
				if !compute(w) {
					return
				}
				bw := bufio.NewWriter(w)
				_ = sendJSON(bw, KAck, Ack{Seq: req.Seq})
				for j := range su.Schedules {
					_ = wio.WriteFrame(bw, KSimVec, encodeVec(j, make([]float64, len(req.Seeds))))
				}
				_ = wio.WriteFrame(bw, KSimDone, nil)
				err = bw.Flush()
			}
			if err != nil {
				w.CloseWithError(err)
				return
			}
		}
	}
}

// scriptedRealize runs one strict request/response RealizeAll (credit
// window 1, 100ms frame deadline) over a single scripted worker and returns
// the coordinator's counters. The whole evaluation is one range, so its job
// budget (Timeout × (1 + realizations×schedules/1000)) is the only bound on
// the exchange besides the frame deadline.
func scriptedRealize(t *testing.T, realizations int, compute func(w io.Writer) bool) *obs.Registry {
	t.Helper()
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	pool := NewPool([]Endpoint{scriptedEndpoint(scriptedSimWorker(compute))})
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.Obs = reg
	coord := &Coordinator{
		Pool: pool, Obs: reg,
		Timeout:       100 * time.Millisecond,
		PipelineDepth: 1,
		RangeSize:     realizations,
	}
	opt := sim.Options{Realizations: realizations, Workers: 1}
	if _, err := coord.RealizeAll(ss, opt, rng.New(9)); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestHeartbeatExtendsDeadline: a worker that takes far longer than the
// frame deadline but pulses heartbeats stays alive; the identical worker
// without pulses is declared dead. This pins down exactly what a heartbeat
// buys: it re-arms the per-frame deadline, nothing more. The range is sized
// so its job budget (1s) comfortably outlasts the 300ms compute.
func TestHeartbeatExtendsDeadline(t *testing.T) {
	slow := func(pulse bool) func(w io.Writer) bool {
		return func(w io.Writer) bool {
			for i := 0; i < 10; i++ { // 300ms of "compute", 3x the deadline
				time.Sleep(30 * time.Millisecond)
				if pulse {
					if err := wio.WriteFrame(w, KHeartbeat, nil); err != nil {
						return false
					}
				}
			}
			return true
		}
	}
	reg := scriptedRealize(t, 3000, slow(true))
	if n := reg.Counter("dist.worker_deaths").Value(); n != 0 {
		t.Fatalf("heartbeating slow worker declared dead (%d deaths)", n)
	}
	if n := reg.Counter("dist.heartbeats").Value(); n == 0 {
		t.Error("no heartbeat reached the coordinator")
	}

	reg = scriptedRealize(t, 3000, slow(false))
	if n := reg.Counter("dist.heartbeat_misses").Value(); n == 0 {
		t.Fatal("silent slow worker did not miss its deadline")
	}
}

// TestJobBudgetBoundsHeartbeats: heartbeats re-arm the frame deadline but
// never the whole-job budget, so a worker stuck in a loop that still pulses
// is eventually declared dead too.
func TestJobBudgetBoundsHeartbeats(t *testing.T) {
	start := time.Now()
	reg := scriptedRealize(t, 32, func(w io.Writer) bool {
		for { // pulse forever, never respond
			time.Sleep(20 * time.Millisecond)
			if err := wio.WriteFrame(w, KHeartbeat, nil); err != nil {
				return false
			}
		}
	})
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("job budget took %v to fire", d)
	}
	if n := reg.Counter("dist.heartbeat_misses").Value(); n == 0 {
		t.Fatal("immortal heartbeater was not cut off by its job budget")
	}
}

// TestWithHeartbeatPulses: the worker-side pulse generator emits heartbeat
// frames during a long compute, and is fully reaped before it returns — no
// pulse can ever land after (or inside) the response that follows.
func TestWithHeartbeatPulses(t *testing.T) {
	var buf bytes.Buffer
	fw := &frameWriter{w: bufio.NewWriter(&buf)}
	err := withHeartbeat(fw, 10, func() error {
		time.Sleep(80 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.write(KOK, nil); err != nil {
		t.Fatal(err)
	}
	kinds := []byte{}
	for {
		kind, _, err := wio.ReadFrame(&buf, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream corrupted by heartbeat interleaving: %v", err)
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) < 2 {
		t.Fatalf("got %d frames, want heartbeats plus the response", len(kinds))
	}
	for _, k := range kinds[:len(kinds)-1] {
		if k != KHeartbeat {
			t.Errorf("mid-compute frame kind %d, want heartbeat", k)
		}
	}
	if kinds[len(kinds)-1] != KOK {
		t.Errorf("final frame kind %d, want the response", kinds[len(kinds)-1])
	}
	// millis <= 0 must not start a pulse goroutine at all.
	buf.Reset()
	if err := withHeartbeat(fw, 0, func() error { time.Sleep(30 * time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("disabled heartbeat still wrote frames")
	}
}

// TestSolveWithTimeoutBitIdentical: arming the liveness machinery on a
// healthy pool (heartbeats flowing, budgets armed) must not perturb the
// trajectory — the sequence numbers and pulses are invisible to the GA.
func TestSolveWithTimeoutBitIdentical(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewLocalPool(2)
	defer pool.Close()
	coord := &Coordinator{Pool: pool, Timeout: 2 * time.Second}
	got, err := coord.Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if !schedulesEqual(got.Schedule, want.Schedule) || got.Generations != want.Generations {
		t.Error("timeout-armed solve diverged from the in-process trajectory")
	}
}
