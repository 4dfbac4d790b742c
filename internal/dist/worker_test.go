package dist

import (
	"errors"
	"io"
	"strings"
	"testing"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// protoDriver speaks raw frames to an in-process ServeWorker, for
// exercising the protocol's error paths without a coordinator.
type protoDriver struct {
	t    *testing.T
	w    *io.PipeWriter
	r    *io.PipeReader
	done chan error
}

func newProtoDriver(t *testing.T) *protoDriver {
	t.Helper()
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := ServeWorker(jobR, resW)
		resW.CloseWithError(err)
		done <- err
	}()
	d := &protoDriver{t: t, w: jobW, r: resR, done: done}
	t.Cleanup(func() { jobW.Close() })
	return d
}

func (d *protoDriver) send(kind byte, v any) {
	d.t.Helper()
	if err := sendJSON(d.w, kind, v); err != nil {
		d.t.Fatal(err)
	}
}

func (d *protoDriver) sendRaw(kind byte, payload []byte) {
	d.t.Helper()
	if err := wio.WriteFrame(d.w, kind, payload); err != nil {
		d.t.Fatal(err)
	}
}

func (d *protoDriver) recv() (byte, []byte) {
	d.t.Helper()
	kind, payload, err := wio.ReadFrame(d.r, nil)
	if err != nil {
		d.t.Fatal(err)
	}
	return kind, payload
}

// expectErr reads one frame, asserts it is a KErr mentioning substr, and
// returns its code.
func (d *protoDriver) expectErr(substr string) string {
	d.t.Helper()
	kind, payload := d.recv()
	if kind != KErr {
		d.t.Fatalf("frame kind %d, want KErr", kind)
	}
	var em ErrMsg
	if err := parseJSON(payload, &em); err != nil {
		d.t.Fatal(err)
	}
	if !strings.Contains(em.Error, substr) {
		d.t.Fatalf("error %q does not mention %q", em.Error, substr)
	}
	return em.Code
}

// TestWorkerProtocolErrors walks the job-level failure paths: each bad
// message earns a KErr and the worker keeps serving; KShutdown ends the
// loop cleanly.
func TestWorkerProtocolErrors(t *testing.T) {
	d := newProtoDriver(t)

	d.sendRaw(99, nil)
	d.expectErr("unknown frame kind")

	d.send(KEpoch, EpochReq{StartGen: 0, Gens: 1})
	d.expectErr("before init")

	d.send(KMigrate, MigrateReq{})
	d.expectErr("before init")

	d.sendRaw(KIslandInit, []byte("{not json"))
	d.expectErr("decoding")

	d.send(KIslandInit, IslandInit{})
	d.expectErr("no islands")

	// A setup sends no frame of its own; its failure answers the range
	// that references it.
	d.sendRaw(KSimSetup, []byte("###"))
	d.send(KSimRange, SimRange{Setup: 1, Seeds: []uint64{1}})
	d.expectErr("decoding")

	d.send(KSimSetup, SimSetup{ID: 2}) // empty workload document
	d.send(KSimRange, SimRange{Setup: 2, Seeds: []uint64{1}})
	d.expectErr("tasks")
	d.send(KSimRange, SimRange{Setup: 2, Seeds: []uint64{2}})
	d.expectErr("tasks")

	// A range with no setup on a fresh worker is coded "setup": the
	// coordinator reassigns it instead of failing the job.
	fresh := newProtoDriver(t)
	fresh.send(KSimRange, SimRange{Setup: 3, Seeds: []uint64{1}})
	if code := fresh.expectErr("no setup"); code != ErrCodeSetup {
		t.Fatalf("setup-less range coded %q, want %q", code, ErrCodeSetup)
	}

	// Finish without islands is harmless (idempotent teardown).
	d.sendRaw(KIslandFinish, nil)
	if kind, _ := d.recv(); kind != KOK {
		t.Fatalf("finish response kind %d, want KOK", kind)
	}

	d.sendRaw(KShutdown, nil)
	if err := <-d.done; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
}

// TestWorkerIslandConversation drives a full island session by hand,
// including a migrant routed to an island the worker does not host.
func TestWorkerIslandConversation(t *testing.T) {
	w := testWorkload(t, 2, 12, 2, 2)
	d := newProtoDriver(t)
	init := IslandInit{
		Workload: wio.NewWorkloadJSON(w),
		Opt: SolverOptions{
			Mode:    int(robust.MinMakespan),
			PopSize: 6, CrossoverRate: 0.9, MutationRate: 0.1,
			MaxGenerations: 10,
		},
		Islands: []IslandSeed{{Island: 1, Seed: 42}, {Island: 0, Seed: 7}},
	}
	d.send(KIslandInit, init)
	kind, payload := d.recv()
	if kind != KIslandState {
		t.Fatalf("init response kind %d", kind)
	}
	var states IslandStates
	if err := parseJSON(payload, &states); err != nil {
		t.Fatal(err)
	}
	// States come back in ascending island order regardless of init order.
	if len(states.States) != 2 || states.States[0].Island != 0 || states.States[1].Island != 1 {
		t.Fatalf("init states %+v", states.States)
	}

	d.send(KEpoch, EpochReq{StartGen: 0, Gens: 3})
	if kind, _ = d.recv(); kind != KIslandState {
		t.Fatalf("epoch response kind %d", kind)
	}

	// Route a migrant to island 0 using island 1's best.
	d.send(KMigrate, MigrateReq{Migrants: []Migrant{{Island: 0, Genotype: states.States[1].Best}}})
	if kind, _ = d.recv(); kind != KIslandState {
		t.Fatalf("migrate response kind %d", kind)
	}

	// A migrant for an island hosted elsewhere is a job error.
	d.send(KMigrate, MigrateReq{Migrants: []Migrant{{Island: 5, Genotype: states.States[0].Best}}})
	d.expectErr("not hosted")

	d.sendRaw(KIslandFinish, nil)
	if kind, _ = d.recv(); kind != KOK {
		t.Fatalf("finish response kind %d", kind)
	}
	d.sendRaw(KShutdown, nil)
	if err := <-d.done; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerErrorSurfacesToCaller: a job-level failure (here: a setup whose
// workload document is empty) comes back through the production range
// dispatcher as a remote *WorkerError and does not kill the worker — nor
// leave a stale frame on its connection: the next evaluation on the same
// one-worker pool runs entirely remotely, with no death and no inline range.
func TestWorkerErrorSurfacesToCaller(t *testing.T) {
	pool := NewLocalPool(1)
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.Obs = reg
	coord := &Coordinator{Pool: pool, Obs: reg}

	d := &simDispatch{
		c:         coord,
		out:       [][]float64{make([]float64, 2)},
		seeds:     []uint64{1, 2},
		ranges:    partitionWidth(2, 1),
		setup:     SimSetup{ID: coord.seq.Add(1)},
		committed: make([]bool, 2),
	}
	first, _ := d.take()
	d.run(first)
	var we *WorkerError
	if !errors.As(d.fatalErr, &we) {
		t.Fatalf("error %v, want *WorkerError", d.fatalErr)
	}
	if we.Worker != 0 || !we.Remote || we.Error() == "" {
		t.Fatalf("worker error %+v", we)
	}

	// The worker survived the bad setup: a real evaluation still works, on
	// the worker, with nothing left over from the failed job.
	w := testWorkload(t, 4, 15, 2, 2)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 20, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.EvaluateAll(ss, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ after recovered job error", j)
		}
	}
	if n := reg.Counter("dist.worker_deaths").Value(); n != 0 {
		t.Errorf("healthy worker declared dead %d times after a rejected setup", n)
	}
	if n := reg.Counter("dist.inline_ranges").Value(); n != 0 {
		t.Errorf("%d ranges fell back in-process after a rejected setup", n)
	}
}

// TestCoordinatorValidation covers the coordinator's own input checks.
func TestCoordinatorValidation(t *testing.T) {
	pool := NewLocalPool(1)
	defer pool.Close()
	coord := &Coordinator{Pool: pool}
	if _, err := coord.RealizeAll(nil, sim.Options{Realizations: 5}, rng.New(1)); err == nil {
		t.Error("empty schedule list accepted")
	}
	w := testWorkload(t, 4, 10, 2, 2)
	ss := testSchedules(t, w)
	if _, err := coord.RealizeAll(ss, sim.Options{Realizations: 0}, rng.New(1)); err == nil {
		t.Error("zero realizations accepted")
	}
	var oe *sim.OptionError
	_, err := coord.EvaluateAll(ss, sim.Options{Realizations: -1}, rng.New(1))
	if !errors.As(err, &oe) {
		t.Errorf("error %v, want *sim.OptionError", err)
	}
}

// TestPoolClosedGet: a closed pool fails checkouts instead of blocking.
func TestPoolClosedGet(t *testing.T) {
	pool := NewLocalPool(1)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := pool.get(); err == nil {
		t.Error("get on closed pool succeeded")
	}
}
