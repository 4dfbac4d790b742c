package schedule

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"robsched/internal/dag"
	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

// TestTrustedDecodeMatchesFromOrder: the pooled decoder must reproduce
// FromOrder exactly — same topological order, same analysis, bit for bit —
// across many random workloads and chromosomes.
func TestTrustedDecodeMatchesFromOrder(t *testing.T) {
	r := rng.New(41)
	dur := []float64(nil)
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(t, r, 2+r.Intn(50), 1+r.Intn(5))
		order, proc := randomGenotype(w, r)
		ref, err := FromOrder(w, order, proc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewDecoder(w).Decode(order, proc)
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, "Decoder", got, ref)
		ge, re := got.DisjunctiveEdges(), ref.DisjunctiveEdges()
		if len(ge) != len(re) {
			t.Fatalf("%d disjunctive edges, want %d", len(ge), len(re))
		}
		for i := range ge {
			if ge[i] != re[i] {
				t.Fatalf("disjunctive edge %d differs", i)
			}
		}
		if got.String() != ref.String() {
			t.Fatal("String() differs")
		}
		// A second forward pass under perturbed durations exercises the
		// CSR arcs directly.
		dur = append(dur[:0], ref.ExpectedDurations()...)
		for v := range dur {
			dur[v] *= 1.25
		}
		if got.MakespanWith(dur) != ref.MakespanWith(dur) {
			t.Fatal("MakespanWith differs")
		}
	}
}

// sameMetrics fails the test unless m is bit-identical to the summary of
// the decoded schedule s.
func sameMetrics(t *testing.T, ctx string, m Metrics, s *Schedule) {
	t.Helper()
	if math.Float64bits(m.Makespan) != math.Float64bits(s.Makespan()) ||
		math.Float64bits(m.AvgSlack) != math.Float64bits(s.AvgSlack()) ||
		math.Float64bits(m.MinSlack) != math.Float64bits(s.MinSlack()) {
		t.Fatalf("%s: Metrics (%v %v %v) != Decode (%v %v %v)", ctx,
			m.Makespan, m.AvgSlack, m.MinSlack, s.Makespan(), s.AvgSlack(), s.MinSlack())
	}
}

// TestMetricsMatchesDecode: the metrics kernel is bit-identical to the
// summary of a full decode over random workloads of 20–140 tasks on 1–9
// processors — both the paper's layered generator and dense random DAGs —
// with the pooled scratch reused across every size.
func TestMetricsMatchesDecode(t *testing.T) {
	r := rng.New(47)
	for trial := 0; trial < 80; trial++ {
		n, m := 20+r.Intn(121), 1+r.Intn(9)
		var w *platform.Workload
		if trial%2 == 0 {
			p := gen.PaperParams()
			p.N, p.M = n, m
			var err error
			if w, err = gen.Random(p, r); err != nil {
				t.Fatal(err)
			}
		} else {
			w = randomWorkload(t, r, n, m)
		}
		dec := NewDecoder(w)
		for k := 0; k < 4; k++ {
			order, proc := randomGenotype(w, r)
			s, err := dec.Decode(order, proc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Metrics(order, proc)
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, fmt.Sprintf("trial %d n=%d m=%d", trial, n, m), got, s)
		}
	}
}

// TestTrustedDecodeRejectsInvalid: FromOrder, the pooled Decode and the
// metrics kernel reject exactly the same malformed genotypes, with the
// same error: a short string, a duplicate, an out-of-range task or
// processor, and a precedence inversion on one processor (the disjunctive
// arc would close a cycle with the data edge) or across two.
func TestTrustedDecodeRejectsInvalid(t *testing.T) {
	b := dag.NewBuilder(2)
	b.MustAddEdge(0, 1, 1)
	w := twoTaskWorkload(t, b.MustBuild())
	dec := NewDecoder(w)
	for _, c := range []struct {
		name        string
		order, proc []int
	}{
		{"short order", []int{0}, []int{0, 0}},
		{"short proc", []int{0, 1}, []int{0}},
		{"duplicate entry", []int{0, 0}, []int{0, 0}},
		{"out-of-range task", []int{0, 2}, []int{0, 0}},
		{"negative task", []int{-1, 0}, []int{0, 0}},
		{"out-of-range processor", []int{0, 1}, []int{0, 2}},
		{"negative processor", []int{0, 1}, []int{-1, 0}},
		{"same-processor inversion", []int{1, 0}, []int{0, 0}},
		{"cross-processor inversion", []int{1, 0}, []int{0, 1}},
	} {
		_, errFrom := FromOrder(w, c.order, c.proc)
		_, errDec := dec.Decode(c.order, c.proc)
		_, errMet := dec.Metrics(c.order, c.proc)
		if errFrom == nil || errDec == nil || errMet == nil {
			t.Fatalf("%s accepted: FromOrder %v, Decode %v, Metrics %v", c.name, errFrom, errDec, errMet)
		}
		if errDec.Error() != errFrom.Error() || errMet.Error() != errFrom.Error() {
			t.Fatalf("%s: errors differ: FromOrder %q, Decode %q, Metrics %q", c.name, errFrom, errDec, errMet)
		}
	}
}

func twoTaskWorkload(t *testing.T, g *dag.Graph) *platform.Workload {
	t.Helper()
	exec, err := platform.MatrixFromRows([][]float64{{2, 3}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := platform.DeterministicWorkload(g, platform.UniformSystem(2, 1), exec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDecodeSteadyStateAllocs locks in the fast paths' allocation budgets
// once the pool is warm: the metrics kernel — the GA's fitness path —
// costs nothing, and a decoded schedule costs its struct plus its two
// arenas.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := rng.New(43)
	w := randomWorkload(t, r, 40, 4)
	order, proc := randomGenotype(w, r)
	dec := NewDecoder(w)
	if _, err := dec.Metrics(order, proc); err != nil { // warm the pool
		t.Fatal(err)
	}
	runtime.GC()
	avg := testing.AllocsPerRun(200, func() {
		if _, err := dec.Metrics(order, proc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Metrics costs %.1f allocs, want 0", avg)
	}
	avg = testing.AllocsPerRun(200, func() {
		if _, err := dec.Decode(order, proc); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 3 {
		t.Fatalf("fresh decode costs %.1f allocs, want <= 3", avg)
	}
}

func BenchmarkDecode(b *testing.B) {
	r := rng.New(1)
	w := benchWorkload(b, r, 100, 8)
	order, proc := randomGenotype(w, r)
	dec := NewDecoder(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(order, proc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetrics(b *testing.B) {
	r := rng.New(1)
	w := benchWorkload(b, r, 100, 8)
	order, proc := randomGenotype(w, r)
	dec := NewDecoder(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Metrics(order, proc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFromOrder(b *testing.B) {
	r := rng.New(1)
	w := benchWorkload(b, r, 100, 8)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromOrder(w, order, proc); err != nil {
			b.Fatal(err)
		}
	}
}
