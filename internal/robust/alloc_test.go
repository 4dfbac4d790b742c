package robust

import (
	"runtime"
	"testing"

	"robsched/internal/rng"
)

// Steady-state allocation per generation of the cached ε-constraint solve
// below, measured before decodes went to scratch schedules and dead
// genotypes were recycled (each chromosome then carried its own ~14 KB
// schedule, and every offspring a fresh gene array).
const (
	legacyBytesPerGen  = 62300
	legacyAllocsPerGen = 54.8
)

// TestSolveSteadyStateAllocBudget gates the allocation of a steady-state
// generation of a cached ε-constraint solve (n=100, m=8, Np=16, one decode
// worker) at a quarter of the legacy figure, in bytes and in objects. The
// per-generation cost is the difference between a 220- and a 20-generation
// run of the same trajectory over the 200 extra generations, so set-up
// (HEFT, the initial population, warming pools) cancels out.
func TestSolveSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := testWorkload(t, 61, 100, 8)
	hs, err := HEFTBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	run := func(gens int) (bytes, objects uint64) {
		opt := PaperOptions(EpsilonConstraint, 1.3)
		opt.PopSize = 16
		opt.MaxGenerations = gens
		opt.Stagnation = 0
		opt.Workers = 1
		opt.HEFT = hs
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Solve(w, opt, rng.New(62)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run(20) // warm the package-level pools
	b1, o1 := run(20)
	b2, o2 := run(220)
	bytes := float64(b2-b1) / 200
	objects := float64(o2-o1) / 200
	t.Logf("steady state: %.0f B and %.1f allocs per generation", bytes, objects)
	if bytes > legacyBytesPerGen/4 {
		t.Errorf("%.0f B per generation, budget %d (a quarter of the legacy %d)", bytes, legacyBytesPerGen/4, legacyBytesPerGen)
	}
	if objects > legacyAllocsPerGen/4 {
		t.Errorf("%.1f allocs per generation, budget %.1f (a quarter of the legacy %.1f)", objects, legacyAllocsPerGen/4, legacyAllocsPerGen)
	}
}
