package dist

import (
	"io"
	"testing"

	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/wio"
)

func defaultIslandOpts() robust.Options {
	return robust.Options{
		Mode: robust.MinMakespan,
		PopSize: 8, CrossoverRate: 0.9, MutationRate: 0.1,
		MaxGenerations: 30, Stagnation: 0,
		Islands: 3, MigrationEvery: 6,
	}
}

func robustSolveRef(t *testing.T, w *platform.Workload, opt robust.Options) (*robust.Result, error) {
	t.Helper()
	return robust.Solve(w, opt, rng.New(31))
}

// killAfterFrames forwards exactly n response frames from the inner worker,
// then kills it — a process crash at a precisely controlled point of the
// island protocol (mid-init, between epochs, mid-checkpoint, ...).
func killAfterFrames(inner Endpoint, n int) Endpoint {
	resR, resW := io.Pipe()
	go func() {
		var buf []byte
		for i := 0; i < n; i++ {
			kind, payload, err := wio.ReadFrame(inner.R, buf)
			if err != nil {
				resW.CloseWithError(err)
				return
			}
			if cap(payload) > cap(buf) {
				buf = payload[:cap(payload)]
			}
			raw, err := wio.AppendFrame(nil, kind, payload)
			if err != nil {
				resW.CloseWithError(err)
				return
			}
			if _, err := resW.Write(raw); err != nil {
				return
			}
		}
		if inner.Kill != nil {
			inner.Kill()
		}
		resW.CloseWithError(io.ErrClosedPipe)
	}()
	return Endpoint{
		W: inner.W,
		R: resR,
		Kill: func() {
			if inner.Kill != nil {
				inner.Kill()
			}
			resR.CloseWithError(io.ErrClosedPipe)
		},
		Wait: inner.Wait,
	}
}

// checkSolveMatches asserts a recovered solve reproduced the fault-free
// trajectory exactly.
func checkSolveMatches(t *testing.T, tag string, got, want *robust.Result) {
	t.Helper()
	if got.Generations != want.Generations || got.Stagnated != want.Stagnated {
		t.Errorf("%s: run shape (%d, %v), want (%d, %v)",
			tag, got.Generations, got.Stagnated, want.Generations, want.Stagnated)
	}
	if !schedulesEqual(got.Schedule, want.Schedule) {
		t.Errorf("%s: schedules differ (makespan %v vs %v)",
			tag, got.Schedule.Makespan(), want.Schedule.Makespan())
	}
}

// TestCheckpointRestartPropertySpareWorker is the headline recovery
// property: kill an island worker after its n-th protocol frame, for every
// n across the whole solve, and the trajectory must continue bit-identically
// on the spare worker restored from the last epoch-barrier checkpoint.
func TestCheckpointRestartPropertySpareWorker(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	opt.Islands = 2 // 2 hosts out of a 3-worker pool leaves a spare for recovery
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	recoveredOnce := false
	for n := 1; n <= 25; n += 2 {
		pool := NewPool([]Endpoint{killAfterFrames(LocalEndpoint(), n), LocalEndpoint(), LocalEndpoint()})
		reg := obs.NewRegistry()
		pool.Obs = reg
		coord := &Coordinator{Pool: pool, Obs: reg}
		got, err := coord.Solve(w, opt, rng.New(31))
		if err != nil {
			t.Fatalf("kill after %d frames: %v", n, err)
		}
		checkSolveMatches(t, "spare-worker", got, want)
		if reg.Counter("dist.recoveries").Value() > 0 {
			recoveredOnce = true
			if reg.Counter("dist.degraded_solves").Value() != 0 {
				t.Errorf("kill after %d frames: degraded in-process despite a spare worker", n)
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !recoveredOnce {
		t.Error("sweep never triggered a recovery; kill points too late?")
	}
}

// TestCheckpointRestartRespawn: no spare workers, but respawn armed — the
// dead host's islands resume from checkpoint on a freshly spawned worker.
func TestCheckpointRestartRespawn(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 9, 13} {
		pool := NewPool([]Endpoint{killAfterFrames(LocalEndpoint(), n), LocalEndpoint()})
		reg := obs.NewRegistry()
		pool.Obs = reg
		pool.Respawn(func() (Endpoint, error) { return LocalEndpoint(), nil }, 2)
		coord := &Coordinator{Pool: pool, Obs: reg}
		got, err := coord.Solve(w, opt, rng.New(31))
		if err != nil {
			t.Fatalf("kill after %d frames: %v", n, err)
		}
		checkSolveMatches(t, "respawn", got, want)
		if reg.Counter("dist.respawns").Value() == 0 {
			t.Errorf("kill after %d frames: no respawn", n)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointRestartDegradesInProcess: no spares, no respawn — the dead
// host's islands fold into the coordinator process and the solve still
// completes bit-identically (graceful degradation, the last rung).
func TestCheckpointRestartDegradesInProcess(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 answers 14 frames over this solve (init, then 5 rounds whose
	// checkpoint pulls overlap the next epoch: epoch/migrate, epoch+ckpt/
	// migrate ×3, epoch+ckpt — final checkpoint and last migration dropped);
	// every kill point below lands mid-run, so each sweep entry must recover.
	// Kills at 1, 2 and 3 land before the first checkpoint commits: those
	// recover from the seed baseline by replaying the full oplog.
	for _, n := range []int{1, 2, 3, 5, 7, 9, 12, 13} {
		pool := NewPool([]Endpoint{killAfterFrames(LocalEndpoint(), n), LocalEndpoint()})
		reg := obs.NewRegistry()
		pool.Obs = reg
		coord := &Coordinator{Pool: pool, Obs: reg}
		got, err := coord.Solve(w, opt, rng.New(31))
		if err != nil {
			t.Fatalf("kill after %d frames: %v", n, err)
		}
		checkSolveMatches(t, "degraded", got, want)
		if reg.Counter("dist.degraded_solves").Value() == 0 {
			t.Errorf("kill after %d frames: expected in-process degradation", n)
		}
		if reg.Counter("dist.checkpoints").Value() == 0 && n > 5 {
			t.Errorf("kill after %d frames: no checkpoints were taken", n)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointEmptyPoolSolvesInProcess: a pool with no workers at all
// still solves — everything folds in-process from the start.
func TestCheckpointEmptyPoolSolvesInProcess(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(nil)
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg}
	got, err := coord.Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	checkSolveMatches(t, "empty-pool", got, want)
	if reg.Counter("dist.degraded_solves").Value() == 0 {
		t.Error("expected the empty pool to count a degraded solve")
	}
}
