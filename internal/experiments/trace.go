package experiments

import (
	"fmt"

	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/stats"
)

// Trace is the result of a Fig. 2 / Fig. 3 experiment: for each uncertainty
// level, the natural-log ratio (relative to generation 0) of the realized
// mean makespan, the average slack, and the robustness R1 of the best
// schedule, sampled along the GA's evolution.
type Trace struct {
	Mode  robust.Mode
	Steps []int // sampled generation indices (0 ... MaxGenerations)
	// Per uncertainty level, aligned with Steps: mean over graphs of
	// ln(metric(step)/metric(0)).
	ULs      []float64
	Makespan [][]float64
	Slack    [][]float64
	R1       [][]float64
}

// EvolutionTrace reproduces Fig. 2 (mode robust.MinMakespan) and Fig. 3
// (mode robust.MaxSlack): single-objective GAs are traced along their
// evolution and the best schedule of each sampled generation is evaluated
// in the simulated "real" environment.
func (c Config) EvolutionTrace(mode robust.Mode) (*Trace, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if mode != robust.MinMakespan && mode != robust.MaxSlack {
		return nil, fmt.Errorf("experiments: EvolutionTrace needs a single-objective mode, got %v", mode)
	}
	base := c.gaOptions()
	maxGen := base.MaxGenerations
	steps := sampleSteps(maxGen, c.TraceEvery)
	tr := &Trace{Mode: mode, Steps: steps, ULs: c.ULs}
	tr.Makespan = make([][]float64, len(c.ULs))
	tr.Slack = make([][]float64, len(c.ULs))
	tr.R1 = make([][]float64, len(c.ULs))

	for u, ul := range c.ULs {
		// Per graph, per sampled step: the three metrics.
		type row struct{ mk, sl, r1 []float64 }
		rows := make([]row, c.Graphs)
		err := c.parallelFor(c.Graphs, func(g int) error {
			w, err := c.workload(u, g, ul)
			if err != nil {
				return err
			}
			// Capture the best schedule at each sampled generation,
			// decoding it while the run still lends the chromosome.
			snapshots := make([]*schedule.Schedule, len(steps))
			next := 0
			var snapErr error
			opt := base
			opt.Mode = mode
			opt.Workers = c.solveWorkers(c.Graphs)
			opt.Stagnation = 0 // traces need the full horizon
			// The paper's Fig. 2/3 trajectories span large log-ratios,
			// which requires the single-objective GAs to start from a
			// fully random population: with a HEFT seed, generation 0 is
			// already near-optimal and the evolution effect is invisible.
			opt.NoHEFTSeed = true
			opt.OnGeneration = func(gen int, best *robust.Chromosome) {
				if next < len(steps) && gen == steps[next] {
					s, err := schedule.FromOrder(w, best.Order, best.Proc)
					if err != nil && snapErr == nil {
						snapErr = err
					}
					snapshots[next] = s
					next++
				}
			}
			gaRNG := rng.New(c.graphSeed(u, g) ^ 0xabcdef12345)
			if _, err := robust.Solve(w, opt, gaRNG); err != nil {
				return err
			}
			if snapErr != nil {
				return snapErr
			}
			// Evaluate every snapshot under common random numbers.
			ms, err := c.evaluateAll(snapshots, c.simOptions(), rng.New(c.graphSeed(u, g)^0x5555))
			if err != nil {
				return err
			}
			rows[g] = row{
				mk: make([]float64, len(steps)),
				sl: make([]float64, len(steps)),
				r1: make([]float64, len(steps)),
			}
			for i := range steps {
				rows[g].mk[i] = stats.LogRatio(ms[i].MeanMakespan, ms[0].MeanMakespan)
				rows[g].sl[i] = stats.LogRatio(snapshots[i].AvgSlack(), snapshots[0].AvgSlack())
				rows[g].r1[i] = stats.LogRatio(ms[i].R1, ms[0].R1)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		tr.Makespan[u] = make([]float64, len(steps))
		tr.Slack[u] = make([]float64, len(steps))
		tr.R1[u] = make([]float64, len(steps))
		for i := range steps {
			mk := make([]float64, c.Graphs)
			sl := make([]float64, c.Graphs)
			r1 := make([]float64, c.Graphs)
			for g := 0; g < c.Graphs; g++ {
				mk[g] = rows[g].mk[i]
				sl[g] = rows[g].sl[i]
				r1[g] = rows[g].r1[i]
			}
			tr.Makespan[u][i] = meanFinite(mk)
			tr.Slack[u][i] = meanFinite(sl)
			tr.R1[u][i] = meanFinite(r1)
		}
	}
	return tr, nil
}

// sampleSteps returns {0, every, 2·every, ..., maxGen} with maxGen always
// included.
func sampleSteps(maxGen, every int) []int {
	var steps []int
	for s := 0; s < maxGen; s += every {
		steps = append(steps, s)
	}
	return append(steps, maxGen)
}

// Series flattens the trace into named curves, three per uncertainty level,
// matching the legend of the paper's figures.
func (t *Trace) Series() []Series {
	x := make([]float64, len(t.Steps))
	for i, s := range t.Steps {
		x[i] = float64(s)
	}
	var out []Series
	for u, ul := range t.ULs {
		out = append(out,
			Series{Name: fmtUL(ul) + ",Makespan", X: x, Y: t.Makespan[u]},
			Series{Name: fmtUL(ul) + ",Slack", X: x, Y: t.Slack[u]},
			Series{Name: fmtUL(ul) + ",R1", X: x, Y: t.R1[u]},
		)
	}
	return out
}
