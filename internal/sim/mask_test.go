package sim

// Tests for the read-masked general sampler: transforming only the
// (task, processor) pairs the evaluated schedules read must give exactly
// the makespans of sampling the full duration matrix, the hoisted
// bounded-Pareto constants must reproduce rng.BoundedParetoQuantile bit for
// bit, and the mask must cost a fixed number of allocations per call.

import (
	"fmt"
	"math"
	"testing"

	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// mixedWorkload is a random workload in which every fifth (task, processor)
// pair is made degenerate (UL = 1), so unread draw-consuming pairs and
// unread draw-free pairs interleave along every row.
func mixedWorkload(tb testing.TB, seed uint64, n, m int) *platform.Workload {
	tb.Helper()
	w := testWorkload(tb, seed, n, m, 3)
	ul := w.UL.Clone()
	for t := 0; t < n; t++ {
		for p := 0; p < m; p++ {
			if (t*m+p)%5 == 2 {
				ul.Set(t, p, 1)
			}
		}
	}
	w, err := platform.NewWorkload(w.G, w.Sys, w.BCET, ul)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// randomSchedules returns count schedules of w with uniformly random
// processor assignments over one topological order.
func randomSchedules(tb testing.TB, w *platform.Workload, count int, r *rng.Source) []*schedule.Schedule {
	tb.Helper()
	order := w.G.TopologicalOrder()
	ss := make([]*schedule.Schedule, count)
	for j := range ss {
		proc := make([]int, w.N())
		for t := range proc {
			proc[t] = r.Intn(w.M())
		}
		s, err := schedule.FromOrder(w, order, proc)
		if err != nil {
			tb.Fatal(err)
		}
		ss[j] = s
	}
	return ss
}

// refFullMakespans is the unmasked reference: every realization samples
// the full n×m duration matrix from the raw uniform block with the rng
// quantile functions, then each schedule's lane is gathered and run through
// the scalar makespan pass. seeds[l] is global realization base+l.
func refFullMakespans(tb testing.TB, ss []*schedule.Schedule, opt Options, seeds []uint64, base int) [][]float64 {
	tb.Helper()
	w := ss[0].Workload()
	n, m := w.N(), w.M()
	full := newSampler(w, coveringSchedules(tb, w), opt)
	u := make([]float64, full.scratch())
	durs := make([]float64, n*m)
	dur := make([]float64, n)
	startBuf := make([]float64, n)
	finishBuf := make([]float64, n)
	out := make([][]float64, len(ss))
	for j := range out {
		out[j] = make([]float64, len(seeds))
	}
	for l, seed := range seeds {
		mirror := opt.Antithetic && (base+l)%2 == 1
		rng.New(seed).Float64s(u)
		if opt.Model == ModelUniform && opt.Corr == CorrNone {
			// The paper's path: midpoint reflection, not 1−u.
			j := 0
			for k := range durs {
				v := full.lo[k]
				if full.width[k] > 0 {
					v = full.lo[k] + full.width[k]*u[j]
					if mirror {
						v = full.sum[k] - v
					}
					j++
				}
				durs[k] = v
			}
		} else {
			if mirror {
				for i := range u {
					u[i] = 1 - u[i]
				}
			}
			j := full.loadDraws
			for k := range durs {
				v := full.lo[k]
				if full.width[k] > 0 {
					uu := u[j]
					j++
					switch opt.Model {
					case ModelUniform:
						v = full.lo[k] + full.width[k]*uu
					case ModelLognormal:
						v = rng.LogNormalQuantile(full.mu[k], full.sigma[k], uu)
					case ModelBoundedPareto:
						v = rng.BoundedParetoQuantile(full.lo[k], full.lo[k]+full.width[k], opt.ParetoShape, uu)
					}
				}
				switch opt.Corr {
				case CorrShared:
					v *= rng.LogNormalQuantile(full.loadMu, full.loadSigma, u[k%m])
				case CorrIndep:
					v *= rng.LogNormalQuantile(full.loadMu, full.loadSigma, u[k])
				}
				durs[k] = v
			}
		}
		for j, s := range ss {
			for t := 0; t < n; t++ {
				dur[t] = durs[t*m+s.Proc(t)]
			}
			out[j][l] = s.MakespanInto(dur, startBuf, finishBuf)
		}
	}
	return out
}

// TestMaskedSamplerMatchesFull is the masked-sampler property: for random
// schedule subsets, every model × correlation, antithetic on and off and a
// RealizeSeeded window starting at an odd global index, the engine's
// makespans are bit-equal to sampling the full matrix.
func TestMaskedSamplerMatchesFull(t *testing.T) {
	w := mixedWorkload(t, 31, 25, 5)
	r := rng.New(32)
	subsets := [][]*schedule.Schedule{
		randomSchedules(t, w, 1, r),
		randomSchedules(t, w, 2, r),
		randomSchedules(t, w, 7, r),
		coveringSchedules(t, w),
	}
	models := []Options{
		{Model: ModelUniform},
		{Model: ModelLognormal},
		{Model: ModelBoundedPareto, ParetoShape: 1.5},
	}
	corrs := []Options{
		{Corr: CorrNone},
		{Corr: CorrShared, LoadCOV: 0.4},
		{Corr: CorrIndep, LoadCOV: 0.4},
	}
	const base, window = 3, 29
	for _, mo := range models {
		for _, co := range corrs {
			for _, anti := range []bool{false, true} {
				opt := mo
				opt.Corr, opt.LoadCOV = co.Corr, co.LoadCOV
				opt.Antithetic = anti
				opt.Workers, opt.BatchSize = 2, 4
				seeds := SeedVector(base+window, anti, rng.New(33))[base:]
				for si, ss := range subsets {
					label := fmt.Sprintf("%v/%v anti=%v subset=%d", opt.Model, opt.Corr, anti, si)
					got, err := RealizeSeeded(ss, opt, seeds, base)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := refFullMakespans(t, ss, opt, seeds, base)
					for j := range want {
						for l := range want[j] {
							if math.Float64bits(got[j][l]) != math.Float64bits(want[j][l]) {
								t.Fatalf("%s: schedule %d realization %d: masked %v, full %v",
									label, j, base+l, got[j][l], want[j][l])
							}
						}
					}
				}
			}
		}
	}
}

// TestParetoHoistBitEqual pins the hoisted bounded-Pareto draw to the public
// quantile function over 10⁵ uniforms, the endpoints 0 and 1−2⁻⁵³ and their
// antithetic mirrors included, for several tail indices.
func TestParetoHoistBitEqual(t *testing.T) {
	w := mixedWorkload(t, 34, 20, 4)
	var pairs []int
	for k := 0; k < w.N()*w.M(); k++ {
		if w.UL.At(k/w.M(), k%w.M()) > 1 {
			pairs = append(pairs, k)
		}
	}
	specials := []float64{0, 1 - 0x1p-53, 1, 0x1p-53}
	for _, alpha := range []float64{0.5, 1.5, 2.5} {
		sp := newSampler(w, coveringSchedules(t, w), Options{Model: ModelBoundedPareto, ParetoShape: alpha})
		check := func(k int, u float64) {
			got := sp.pareto(k, u)
			want := rng.BoundedParetoQuantile(sp.lo[k], sp.lo[k]+sp.width[k], alpha, u)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha=%v pair %d u=%v: hoisted %v, reference %v", alpha, k, u, got, want)
			}
		}
		for _, k := range pairs {
			for _, u := range specials {
				check(k, u)
			}
		}
		r := rng.New(35)
		for i := 0; i < 100000; i++ {
			check(pairs[i%len(pairs)], r.Float64())
		}
	}
}

// TestRealizeAllAllocsFlat pins RealizeAll's allocations per call on the
// uniform and the general path: the same count at 64 and at 1000
// realizations, so the sampler tables, the read mask and the worker buffers
// are per-call costs and no realization or batch allocates.
func TestRealizeAllAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := testWorkload(t, 36, 30, 4, 4)
	ss := benchSchedules(t, w, 3)
	for _, opt := range []Options{
		{},
		{Model: ModelLognormal, Corr: CorrIndep, LoadCOV: 0.3},
		{Model: ModelBoundedPareto, ParetoShape: 1.5, Corr: CorrShared, LoadCOV: 0.3},
	} {
		allocs := func(realizations int) float64 {
			o := opt
			o.Realizations, o.Workers = realizations, 1
			return testing.AllocsPerRun(5, func() {
				if _, err := RealizeAll(ss, o, rng.New(1)); err != nil {
					t.Fatal(err)
				}
			})
		}
		a64, a1000 := allocs(64), allocs(1000)
		if a64 != a1000 {
			t.Errorf("%v/%v: %v allocs at 64 realizations, %v at 1000", opt.Model, opt.Corr, a64, a1000)
		}
		t.Logf("%v/%v: %v allocs per call", opt.Model, opt.Corr, a64)
	}
}
