package schedule

import (
	"testing"

	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

// sameSchedule fails the test unless every piece of state of got — exported
// and internal, analysis and adjacency — is bit-identical to want.
func sameSchedule(t *testing.T, ctx string, got, want *Schedule) {
	t.Helper()
	if got.w != want.w || got.arcs != want.arcs {
		t.Fatalf("%s: workload or arc set differs", ctx)
	}
	if got.makespan != want.makespan || got.avgSlack != want.avgSlack || got.minSlack != want.minSlack {
		t.Fatalf("%s: summary differs: (%v %v %v) != (%v %v %v)", ctx,
			got.makespan, got.avgSlack, got.minSlack, want.makespan, want.avgSlack, want.minSlack)
	}
	intSlices := [][2][]int32{
		{got.proc, want.proc}, {got.topo, want.topo}, {got.porder, want.porder},
		{got.porderOff, want.porderOff}, {got.dsucc, want.dsucc}, {got.dpred, want.dpred},
	}
	for si, pair := range intSlices {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: int slice %d length %d != %d", ctx, si, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: int slice %d differs at %d: %d != %d", ctx, si, i, pair[0][i], pair[1][i])
			}
		}
	}
	floatSlices := [][2][]float64{
		{got.predComm, want.predComm}, {got.expDur, want.expDur},
		{got.start, want.start}, {got.finish, want.finish}, {got.bl, want.bl}, {got.slack, want.slack},
	}
	for si, pair := range floatSlices {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: float slice %d length %d != %d", ctx, si, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: float slice %d differs at %d: %v != %v", ctx, si, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// randomGenotype draws a random topological order and assignment.
func randomGenotype(w *platform.Workload, r *rng.Source) (order, proc []int) {
	order = w.G.RandomTopologicalOrder(r)
	proc = make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	return order, proc
}

// FuzzMetrics checks the metrics kernel against a full decode. Genotype
// A is evaluated on a workload of its own size first, so the pooled
// scratch B reuses is sometimes too small (regrown) and sometimes larger
// than B needs (re-carved); with same set, A and B share B's workload.
// B's summary must be bit-identical to a fresh Decode of B. Then B is
// corrupted once — two scheduling-string entries swapped (which may break
// topological order) or one gene pushed out of range — and the kernel must
// reject it exactly when Decode does, with the same error.
func FuzzMetrics(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), false)
	f.Add(uint64(7), uint64(11), uint64(5), true)
	f.Add(uint64(42), uint64(13), uint64(40), false)
	f.Add(uint64(99), uint64(3), uint64(0), true)
	f.Fuzz(func(t *testing.T, wseed, dseed, aseed uint64, same bool) {
		workload := func(seed uint64) *platform.Workload {
			p := gen.PaperParams()
			p.N = 2 + int(seed%40)
			p.M = 1 + int(seed%6)
			w, err := gen.Random(p, rng.New(seed))
			if err != nil {
				return nil
			}
			return w
		}
		wb := workload(wseed)
		wa := wb
		if !same {
			wa = workload(aseed)
		}
		if wa == nil || wb == nil {
			return
		}
		r := rng.New(dseed)
		aOrder, aProc := randomGenotype(wa, r)
		bOrder, bProc := randomGenotype(wb, r)

		if _, err := NewDecoder(wa).Metrics(aOrder, aProc); err != nil {
			t.Fatalf("metrics of A failed: %v", err)
		}
		dec := NewDecoder(wb)
		got, err := dec.Metrics(bOrder, bProc)
		if err != nil {
			t.Fatalf("metrics of B failed: %v", err)
		}
		want, err := dec.Decode(bOrder, bProc)
		if err != nil {
			t.Fatalf("decode of B failed: %v", err)
		}
		sameMetrics(t, "B", got, want)

		n := wb.N()
		switch i, j := r.Intn(n), r.Intn(n); r.Intn(3) {
		case 0:
			bOrder[i], bOrder[j] = bOrder[j], bOrder[i]
		case 1:
			bOrder[i] = n + j
		default:
			bProc[i] = wb.M() + j
		}
		_, errMet := dec.Metrics(bOrder, bProc)
		s, errDec := dec.Decode(bOrder, bProc)
		switch {
		case (errMet == nil) != (errDec == nil):
			t.Fatalf("corrupted B: Metrics error %v, Decode error %v", errMet, errDec)
		case errDec != nil && errMet.Error() != errDec.Error():
			t.Fatalf("corrupted B: Metrics error %q, Decode error %q", errMet, errDec)
		case errDec == nil:
			m, _ := dec.Metrics(bOrder, bProc)
			sameMetrics(t, "corrupted B", m, s)
		}
	})
}
