package main

import (
	"testing"

	"robsched/internal/scenario"
)

// TestOpsEvaluateWholeJobSet pins that every mc_heavy and dist_tcp op does
// the same work, the whole job set, so op_ms_p50 is a median over equal ops.
func TestOpsEvaluateWholeJobSet(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up paper-scale workloads")
	}
	const ops = 2
	for _, tc := range []struct {
		name  string
		setup func(uint64) (workload, error)
		spans map[string]int // span → count per op
	}{
		{"mc_heavy", setupMCHeavy, map[string]int{
			"bench/sim.eval.lognormal":  len(scenario.Families()),
			"bench/sim.eval.pareto":     len(scenario.Families()),
			"bench/sim.eval.correlated": len(scenario.Families()),
		}},
		{"dist_tcp", setupDistTCP, map[string]int{"dist/realize_all": distJobs}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.setup(3)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			tr := newTracing()
			if err := w.trace(tr); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ops; i++ {
				if err := w.op(i); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			for span, perOp := range tc.spans {
				if got := len(tr.spans.get(span)); got != ops*perOp {
					t.Errorf("%s: %d spans after %d ops, want %d", span, got, ops, ops*perOp)
				}
			}
		})
	}
}
