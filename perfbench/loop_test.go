package main

import (
	"errors"
	"io"
	"math"
	"runtime/metrics"
	"strings"
	"testing"
)

func TestLatencyStatsP90NeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		hasP90 bool
		p90    float64
	}{
		{1, false, 0},
		{2, false, 0},
		{99, false, 0}, // nearest rank 90: 9 samples beyond
		{100, true, 90},
		{101, true, 91}, // nearest rank 91: 10 samples beyond
	} {
		p50, p90, ok := latencyStats(samples(tc.n))
		if ok != tc.hasP90 {
			t.Errorf("n=%d: hasP90 = %v, want %v", tc.n, ok, tc.hasP90)
		}
		if ok && p90 != tc.p90 {
			t.Errorf("n=%d: p90 = %g, want %g", tc.n, p90, tc.p90)
		}
		if want := float64(tc.n+1) / 2; p50 != want {
			t.Errorf("n=%d: p50 = %g, want %g", tc.n, p50, want)
		}
	}
}

// failingWorkload fails the check of every failEvery-th op.
type failingWorkload struct{ failEvery int }

var errInjected = errors.New("injected check failure")

func (f failingWorkload) op(i int) error {
	if (i+1)%f.failEvery == 0 {
		return errInjected
	}
	return nil
}
func (failingWorkload) trace(*tracing) error { return nil }
func (failingWorkload) close()               {}

func TestRunPhaseCountsFailedOps(t *testing.T) {
	p := runPhase(0, 9, failingWorkload{failEvery: 3}.op)
	if p.attempted != 9 || p.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 9 and 3", p.attempted, p.failed)
	}
	if got := p.errorRate(); got != 1.0/3 {
		t.Errorf("error rate %g, want 1/3", got)
	}
	if !errors.Is(p.firstErr, errInjected) || !strings.Contains(p.firstErr.Error(), "op 2") {
		t.Errorf("first error %v, want the injected failure of op 2", p.firstErr)
	}
	if len(p.lat) != 9 {
		t.Errorf("%d latencies, want one per attempted op", len(p.lat))
	}
}

func TestMeasuredRunReportsFailures(t *testing.T) {
	setup := func(uint64) (workload, error) { return failingWorkload{failEvery: 2}, nil }
	res, err := measuredRun(io.Discard, setup, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-length phase still runs one op: op 0 passes.
	if res.Correct != (res.Failed == 0) || res.Attempted != 1 {
		t.Fatalf("result %+v", res)
	}
	res, err = measuredRun(io.Discard, func(uint64) (workload, error) { return failingWorkload{failEvery: 1}, nil }, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Fatalf("all-failing run reported %+v, want correct=false failed=1 attempted=1", res)
	}
	if got := res.Metrics["ops_per_s"].Value; got != 0 {
		t.Errorf("ops_per_s %g with every op failed, want 0", got)
	}
}

func TestHistP90InterpolatesWithinBucket(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 10, 20, math.Inf(1)}
	before := &metrics.Float64Histogram{Counts: []uint64{0, 5, 5, 0}, Buckets: buckets}
	// Gained: 80 in [10,20) and 20 in [20,+Inf). The 90th of 100 samples
	// falls in the open top bucket, which reports its finite edge.
	after := &metrics.Float64Histogram{Counts: []uint64{0, 5, 85, 20}, Buckets: buckets}
	if got := histP90(before, after); got != 20 {
		t.Errorf("p90 = %g, want 20", got)
	}
	// Gained: 100 in [10,20): the 90th lies 90% of the way through it.
	after = &metrics.Float64Histogram{Counts: []uint64{0, 5, 105, 0}, Buckets: buckets}
	if got := histP90(before, after); math.Abs(got-19) > 1e-12 {
		t.Errorf("p90 = %g, want 19", got)
	}
	if got := histP90(before, before); got != 0 {
		t.Errorf("p90 of no samples = %g, want 0", got)
	}
}
