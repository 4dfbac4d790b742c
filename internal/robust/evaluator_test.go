package robust

import (
	"testing"

	"robsched/internal/ga"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// TestEvaluateParallelMatchesSerial: for every mode, the parallel decode
// path must produce bit-identical fitness vectors to the serial one.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	modes := []Mode{EpsilonConstraint, MinMakespan, MaxSlack}
	for _, mode := range modes {
		for _, shape := range []struct{ n, m int }{{12, 2}, {40, 4}, {80, 8}} {
			w := testWorkload(t, 7, shape.n, shape.m)
			mheft := 100.0
			serial := &evaluator{w: w, opt: Options{Mode: mode, Eps: 1.3, Workers: 1}, mheft: mheft, dec: schedule.NewDecoder(w)}
			par := &evaluator{w: w, opt: Options{Mode: mode, Eps: 1.3, Workers: 0}, mheft: mheft, dec: schedule.NewDecoder(w)}

			// Two identical undecoded populations (Evaluate memoizes decode
			// state on the chromosomes, so each evaluator needs its own
			// copies), each with an aliased pointer like the engine produces.
			r := rng.New(99)
			popA := make([]*Chromosome, 0, 21)
			popB := make([]*Chromosome, 0, 21)
			for i := 0; i < 20; i++ {
				c := Random(w, r)
				popA = append(popA, c.Clone())
				popB = append(popB, c.Clone())
			}
			popA = append(popA, popA[3])
			popB = append(popB, popB[3])

			fs := serial.evaluate(popA)
			fp := par.evaluate(popB)
			for i := range fs {
				if fs[i] != fp[i] {
					t.Fatalf("mode %v n=%d: fitness[%d] parallel %v != serial %v",
						mode, shape.n, i, fp[i], fs[i])
				}
			}
		}
	}
}

// TestSolveParallelDeterminism: a full Solve run must be bit-identical
// regardless of the worker count — same best schedule, same generation
// count, same per-generation best-makespan trace.
func TestSolveParallelDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		for _, shape := range []struct{ n, m int }{{25, 3}, {50, 5}} {
			w := testWorkload(t, seed, shape.n, shape.m)
			run := func(workers int) (*Result, []float64) {
				var trace []float64
				opt := PaperOptions(EpsilonConstraint, 1.4)
				opt.MaxGenerations = 40
				opt.Stagnation = 0
				opt.Workers = workers
				opt.OnGeneration = func(gen int, c *Chromosome) {
					best := decodeLent(t, w, c)
					trace = append(trace, best.Makespan(), best.AvgSlack())
				}
				res, err := Solve(w, opt, rng.New(seed*1000+uint64(shape.n)))
				if err != nil {
					t.Fatal(err)
				}
				return res, trace
			}
			r1, t1 := run(1)
			rp, tp := run(0)
			if r1.Schedule.Makespan() != rp.Schedule.Makespan() ||
				r1.Schedule.AvgSlack() != rp.Schedule.AvgSlack() ||
				r1.Generations != rp.Generations {
				t.Fatalf("seed %d n=%d: parallel result differs from serial", seed, shape.n)
			}
			o1, op := r1.Schedule.Order(), rp.Schedule.Order()
			p1, pp := r1.Schedule.ProcAssignment(), rp.Schedule.ProcAssignment()
			for v := 0; v < shape.n; v++ {
				if o1[v] != op[v] || p1[v] != pp[v] {
					t.Fatalf("seed %d n=%d: best genotype differs at task %d", seed, shape.n, v)
				}
			}
			if len(t1) != len(tp) {
				t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(tp))
			}
			for i := range t1 {
				if t1[i] != tp[i] {
					t.Fatalf("seed %d n=%d: generation trace differs at %d", seed, shape.n, i)
				}
			}
		}
	}
}

func BenchmarkEvaluatePopulation(b *testing.B) {
	w := testWorkload(b, 5, 100, 8)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			eval := &evaluator{
				w:     w,
				opt:   Options{Mode: EpsilonConstraint, Eps: 1.4, Workers: bench.workers},
				mheft: 100,
				dec:   schedule.NewDecoder(w),
			}
			r := rng.New(1)
			template := make([]*Chromosome, 20)
			for i := range template {
				template[i] = Random(w, r)
			}
			pop := make([]*Chromosome, len(template))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, c := range template {
					pop[j] = c.Clone() // undecoded copies each round
				}
				b.StartTimer()
				eval.evaluate(pop)
			}
		})
	}
}

// recycleRun is everything observable about one Solve run that genotype
// recycling could corrupt: the result, the OnGeneration snapshots (decoded
// inside each call and retained past the run, as EvolutionTrace does) and
// the Observer trajectory.
type recycleRun struct {
	res   *Result
	snaps []*schedule.Schedule
	stats []ga.GenStats
}

// solveWithPool runs Solve with newGenePool replaced by pool and reports
// the pools the run built.
func solveWithPool(t *testing.T, w *platform.Workload, opt Options, seed uint64, pool func() *genePool) (recycleRun, []*genePool) {
	t.Helper()
	var built []*genePool
	saved := newGenePool
	newGenePool = func() *genePool {
		p := pool()
		if p != nil {
			built = append(built, p)
		}
		return p
	}
	defer func() { newGenePool = saved }()
	var run recycleRun
	if opt.Islands <= 1 {
		opt.OnGeneration = func(gen int, best *Chromosome) { run.snaps = append(run.snaps, decodeLent(t, w, best)) }
	}
	opt.Observer = ga.ObserverFunc(func(s ga.GenStats) { run.stats = append(run.stats, s) })
	res, err := Solve(w, opt, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	run.res = res
	return run, built
}

// TestSolveRecycleTrajectoryIdentity is the use-after-release guard of
// genotype recycling. The recycling run poisons every released gene array
// with -1 before the operators reuse it, so an individual released while
// still live — the elite, a survivor, a retained best — would feed -1
// genes into a later clone, decode or cache comparison. The run must be
// bit-identical to one with no recycling at all: the result, every
// OnGeneration snapshot (each of which must also still equal a fresh
// decode of its own genotype after the run) and the Observer trajectory.
// Exercised across the worker and cache configurations; the islands case
// checks that island runs never build a free list, so never release.
func TestSolveRecycleTrajectoryIdentity(t *testing.T) {
	for _, cfg := range []struct {
		name             string
		workers, islands int
		noCache          bool
	}{
		{"serial", 1, 1, false},
		{"parallel", 0, 1, false},
		{"islands", 0, 3, false},
		{"nocache", 1, 1, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for _, shape := range []struct{ n, m int }{{25, 3}, {60, 5}} {
				w := testWorkload(t, 13, shape.n, shape.m)
				opt := PaperOptions(EpsilonConstraint, 1.4)
				opt.MaxGenerations = 40
				opt.Stagnation = 0
				opt.Workers = cfg.workers
				opt.NoMetricsCache = cfg.noCache
				if cfg.islands > 1 {
					opt.Islands = cfg.islands
					opt.MigrationEvery = 10
				}
				seed := 7000 + uint64(shape.n)
				plain, _ := solveWithPool(t, w, opt, seed, func() *genePool { return nil })
				got, pools := solveWithPool(t, w, opt, seed, func() *genePool { return &genePool{poison: true} })

				if cfg.islands > 1 {
					if len(pools) != 0 {
						t.Fatalf("n=%d: an island run built %d gene free lists", shape.n, len(pools))
					}
				} else {
					if len(pools) != 1 || len(pools[0].free) == 0 {
						t.Fatalf("n=%d: the run released no chromosomes; the guard is vacuous", shape.n)
					}
					for _, c := range pools[0].free {
						for _, g := range c.genes {
							if g != -1 {
								t.Fatalf("n=%d: a free chromosome's genes were written after its release", shape.n)
							}
						}
					}
				}
				a, b := plain.res.Schedule, got.res.Schedule
				if a.Makespan() != b.Makespan() || a.AvgSlack() != b.AvgSlack() ||
					plain.res.Generations != got.res.Generations ||
					!eqInts(a.Order(), b.Order()) || !eqInts(a.ProcAssignment(), b.ProcAssignment()) {
					t.Fatalf("n=%d: recycling changed the result", shape.n)
				}
				if len(plain.snaps) != len(got.snaps) {
					t.Fatalf("n=%d: snapshot counts differ: %d vs %d", shape.n, len(plain.snaps), len(got.snaps))
				}
				for i, s := range got.snaps {
					fresh, err := schedule.FromOrder(w, s.Order(), s.ProcAssignment())
					if err != nil {
						t.Fatalf("n=%d gen %d: snapshot genotype invalid: %v", shape.n, i, err)
					}
					if s.Makespan() != fresh.Makespan() || s.AvgSlack() != fresh.AvgSlack() {
						t.Fatalf("n=%d gen %d: retained snapshot no longer matches its genotype", shape.n, i)
					}
					if p := plain.snaps[i]; s.Makespan() != p.Makespan() || s.AvgSlack() != p.AvgSlack() {
						t.Fatalf("n=%d gen %d: snapshot differs from the run without recycling", shape.n, i)
					}
				}
				if len(plain.stats) != len(got.stats) {
					t.Fatalf("n=%d: observer trajectory lengths differ", shape.n)
				}
				for i := range got.stats {
					if got.stats[i] != plain.stats[i] {
						t.Fatalf("n=%d: observer trajectory differs at %d: %+v vs %+v", shape.n, i, got.stats[i], plain.stats[i])
					}
				}
			}
		})
	}
}
