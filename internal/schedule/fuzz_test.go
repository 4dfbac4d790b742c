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
		{got.succComm, want.succComm}, {got.predComm, want.predComm}, {got.expDur, want.expDur},
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

// FuzzDecodeReuse checks the arena reuse of DecodeInto: decoding genotype
// A into a schedule and then genotype B into the same target must leave
// the target bit-identical to a fresh Decode of B — every exported
// analysis value (makespan, slacks, start times, bottom levels and a
// MakespanInto re-evaluation) and every internal vector. A is drawn on a
// workload of its own size, so the target's arenas are sometimes too
// small (regrown) and sometimes larger than B needs (re-carved); with
// same set, A and B share B's workload.
func FuzzDecodeReuse(f *testing.F) {
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

		var got Schedule
		if err := NewDecoder(wa).DecodeInto(&got, aOrder, aProc); err != nil {
			t.Fatalf("decode of A failed: %v", err)
		}
		dec := NewDecoder(wb)
		if err := dec.DecodeInto(&got, bOrder, bProc); err != nil {
			t.Fatalf("re-decode of B failed: %v", err)
		}
		want, err := dec.Decode(bOrder, bProc)
		if err != nil {
			t.Fatalf("fresh decode of B failed: %v", err)
		}
		n := wb.N()
		if got.Makespan() != want.Makespan() || got.AvgSlack() != want.AvgSlack() || got.MinSlack() != want.MinSlack() {
			t.Fatalf("summary differs after reuse")
		}
		for v := 0; v < n; v++ {
			if got.Start(v) != want.Start(v) || got.BottomLevel(v) != want.BottomLevel(v) || got.Slack(v) != want.Slack(v) {
				t.Fatalf("task %d: analysis differs after reuse", v)
			}
		}
		dur := make([]float64, n)
		for v := range dur {
			dur[v] = wb.ExpectedAt(v, got.Proc(v)) * (1 + r.Float64())
		}
		st, fin := make([]float64, n), make([]float64, n)
		if a, b := got.MakespanInto(dur, st, fin), want.MakespanInto(dur, st, fin); a != b {
			t.Fatalf("MakespanInto differs after reuse: %v != %v", a, b)
		}
		sameSchedule(t, "reuse", &got, want)
	})
}
