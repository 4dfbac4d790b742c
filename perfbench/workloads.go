package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"robsched/internal/dist"
	"robsched/internal/experiments"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/scenario"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// recordedSeed is the seed of the recorded results/fig*.csv tables.
const recordedSeed = 1

// jobSeeds derives the workload and Monte-Carlo root seeds of job k from
// the benchmark seed.
func jobSeeds(seed uint64, k int) (workload, root uint64) {
	x := seed ^ uint64(k+1)*0xbf58476d1ce4e5b9
	return x, x ^ 0x94d049bb133111eb
}

// fixedSchedules returns HEFT plus deterministic round-robin variants of
// one workload, count in total — the schedule set of the repository's
// Monte-Carlo benchmarks.
func fixedSchedules(w *platform.Workload, count int) ([]*schedule.Schedule, error) {
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		return nil, err
	}
	ss := []*schedule.Schedule{s}
	order := w.G.TopologicalOrder()
	for k := 1; len(ss) < count; k++ {
		proc := make([]int, w.N())
		for i, v := range order {
			proc[v] = (i*k + k) % w.M()
		}
		s, err := schedule.FromOrder(w, order, proc)
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// --- figures ---------------------------------------------------------------

// figures is Figs. 2–8 at the recorded configuration, as
// `experiments -fig all` runs them.
type figures struct {
	cfg  experiments.Config
	want map[string][]byte // reference CSVs; only at the recorded seed
	t    *tracing
}

// figureNames lists the CSV tables an op renders, in order.
var figureNames = []string{"2", "3", "4", "5", "6", "7", "8"}

// recordedConfig is the EXPERIMENTS.md recorded configuration: n=100, m=8,
// 20 graphs, 500 realizations, 300 generations.
func recordedConfig(seed uint64) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.Graphs = 20
	cfg.Realizations = 500
	cfg.GA.MaxGenerations = 300
	cfg.Gen.N = 100
	cfg.Gen.M = 8
	return cfg
}

func setupFigures(seed uint64) (workload, error) {
	f := &figures{cfg: recordedConfig(seed)}
	if seed == recordedSeed {
		f.want = map[string][]byte{}
		for _, fig := range figureNames {
			b, err := os.ReadFile(filepath.Join("results", "fig"+fig+".csv"))
			if err != nil {
				return nil, fmt.Errorf("reading the recorded tables (run from the repository root): %w", err)
			}
			f.want[fig] = b
		}
	}
	// Warm-up: the whole pipeline at toy scale, so every code path has run.
	warm := &figures{cfg: f.cfg}
	warm.cfg.Graphs, warm.cfg.Realizations, warm.cfg.GA.MaxGenerations = 1, 50, 20
	if err := warm.op(0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func (f *figures) trace(t *tracing) error {
	f.t = t
	f.cfg.Obs, f.cfg.Trace = t.reg, t.tr
	return nil
}

func (f *figures) close() {}

func (f *figures) op(int) error {
	tables := map[string][]byte{}
	render := func(fig, xlabel string, series []experiments.Series, err error) error {
		if err != nil {
			return err
		}
		for _, s := range series {
			for _, y := range s.Y {
				if math.IsNaN(y) || math.IsInf(y, 0) {
					return fmt.Errorf("fig%s: series %q has non-finite value %g", fig, s.Name, y)
				}
			}
		}
		var b bytes.Buffer
		if err := experiments.WriteCSV(&b, xlabel, series); err != nil {
			return err
		}
		tables[fig] = b.Bytes()
		return nil
	}
	for _, m := range []struct {
		fig  string
		mode robust.Mode
	}{{"2", robust.MinMakespan}, {"3", robust.MaxSlack}} {
		end := f.t.span("experiments.trace")
		tr, err := f.cfg.EvolutionTrace(m.mode)
		end()
		if err != nil {
			return err
		}
		if err := render(m.fig, "step", tr.Series(), nil); err != nil {
			return err
		}
	}
	end := f.t.span("experiments.sweep")
	sw, err := f.cfg.RunSweep()
	end()
	if err != nil {
		return err
	}
	if err := checkSweep(sw); err != nil {
		return err
	}
	s4, err := sw.Fig4()
	if err := render("4", "UL", s4, err); err != nil {
		return err
	}
	s5, err := sw.FigEpsImprovement(experiments.R1)
	if err := render("5", "eps", s5, err); err != nil {
		return err
	}
	s6, err := sw.FigEpsImprovement(experiments.R2)
	if err := render("6", "eps", s6, err); err != nil {
		return err
	}
	s7, err := sw.FigBestEps(experiments.R1)
	if err := render("7", "r", s7, err); err != nil {
		return err
	}
	s8, err := sw.FigBestEps(experiments.R2)
	if err := render("8", "r", s8, err); err != nil {
		return err
	}
	for fig, want := range f.want {
		if !bytes.Equal(tables[fig], want) {
			return fmt.Errorf("fig%s.csv differs from results/fig%s.csv", fig, fig)
		}
	}
	return nil
}

// checkSweep verifies the ε-constraint of every GA point: M0 ≤ ε·M_HEFT.
func checkSweep(sw *experiments.Sweep) error {
	for u := range sw.GA {
		for e, eps := range sw.Eps {
			for g, p := range sw.GA[u][e] {
				if bound := eps * sw.HEFT[u][g].M0; !(p.M0 <= bound) {
					return fmt.Errorf("sweep UL=%g ε=%g graph %d: M0 %g exceeds ε·M_HEFT %g", sw.ULs[u], eps, g, p.M0, bound)
				}
			}
		}
	}
	return nil
}

// --- mc_heavy --------------------------------------------------------------

// mcModels are the non-uniform duration models mc_heavy evaluates under.
var mcModels = []string{"lognormal", "pareto", "correlated"}

// mcJob is one paper-scale workload of a scenario family with its fixed
// schedules, one option set per model, and the set-up evaluation each op
// must reproduce bit for bit.
type mcJob struct {
	family string
	ss     []*schedule.Schedule
	opts   []sim.Options // per mcModels entry
	root   uint64
	want   [][]sim.Metrics
}

// mcHeavy holds one job per scenario family, evaluated with the sim engine
// on all cores.
type mcHeavy struct {
	jobs []mcJob
	t    *tracing
}

func setupMCHeavy(seed uint64) (workload, error) {
	m := &mcHeavy{}
	for k, family := range scenario.Families() {
		wseed, root := jobSeeds(seed, k)
		sc, err := scenario.Lookup(family)
		if err != nil {
			return nil, err
		}
		w, err := sc.Workload(gen.PaperParams(), rng.New(wseed))
		if err != nil {
			return nil, err
		}
		ss, err := fixedSchedules(w, 7)
		if err != nil {
			return nil, err
		}
		job := mcJob{family: family, ss: ss, root: root}
		for _, model := range mcModels {
			s, err := scenario.Lookup(family + "-" + model)
			if err != nil {
				return nil, err
			}
			opt := s.Apply(sim.PaperOptions())
			want, err := sim.EvaluateAll(ss, opt, rng.New(root))
			if err != nil {
				return nil, err
			}
			if err := checkMetrics(want); err != nil {
				return nil, fmt.Errorf("%s-%s: %w", family, model, err)
			}
			job.opts = append(job.opts, opt)
			job.want = append(job.want, want)
		}
		m.jobs = append(m.jobs, job)
	}
	return m, nil
}

func (m *mcHeavy) trace(t *tracing) error {
	m.t = t
	for j := range m.jobs {
		for k := range m.jobs[j].opts {
			m.jobs[j].opts[k].Obs, m.jobs[j].opts[k].Trace = t.reg, t.tr
		}
	}
	return nil
}

func (m *mcHeavy) close() {}

// op evaluates every family's job under every model. One op is the whole
// cycle, so each op does the same work: a median over ops that each ran one
// family would jump between the families' costs.
func (m *mcHeavy) op(int) error {
	for _, job := range m.jobs {
		for k, model := range mcModels {
			end := m.t.span("sim.eval." + model)
			got, err := sim.EvaluateAll(job.ss, job.opts[k], rng.New(job.root))
			end()
			if err != nil {
				return err
			}
			if err := checkMetrics(got); err != nil {
				return fmt.Errorf("%s-%s: %w", job.family, model, err)
			}
			if err := sameMetrics(got, job.want[k]); err != nil {
				return fmt.Errorf("%s-%s: %w", job.family, model, err)
			}
		}
	}
	return nil
}

// checkMetrics verifies that every statistic is finite — except R1 and R2,
// which sim.Metrics defines as +Inf exactly when no realization is tardy
// or misses — and that the order statistics are ordered:
// Min ≤ P50 ≤ P95 ≤ P99 ≤ Max.
func checkMetrics(ms []sim.Metrics) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for j, m := range ms {
		for _, v := range []float64{m.M0, m.MeanMakespan, m.StdMakespan, m.MinMakespan, m.MaxMakespan,
			m.MeanTardiness, m.MissRate, m.P50, m.P95, m.P99} {
			if !finite(v) {
				return fmt.Errorf("schedule %d: non-finite metric in %+v", j, m)
			}
		}
		if finite(m.R1) != (m.MeanTardiness > 0) || finite(m.R2) != (m.MissRate > 0) ||
			math.IsInf(m.R1, -1) || math.IsInf(m.R2, -1) {
			return fmt.Errorf("schedule %d: R1/R2 disagree with tardiness/miss rate: %+v", j, m)
		}
		if !(m.MinMakespan <= m.P50 && m.P50 <= m.P95 && m.P95 <= m.P99 && m.P99 <= m.MaxMakespan) {
			return fmt.Errorf("schedule %d: order statistics out of order: %+v", j, m)
		}
	}
	return nil
}

// sameMetrics reports whether got equals want bit for bit, field by field.
func sameMetrics(got, want []sim.Metrics) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d metric sets, want %d", len(got), len(want))
	}
	for j := range got {
		g, w := reflect.ValueOf(got[j]), reflect.ValueOf(want[j])
		for f := 0; f < g.NumField(); f++ {
			gf, wf := g.Field(f), w.Field(f)
			same := gf.Kind() == reflect.Float64 && math.Float64bits(gf.Float()) == math.Float64bits(wf.Float()) ||
				gf.Kind() == reflect.Int && gf.Int() == wf.Int()
			if !same {
				return fmt.Errorf("schedule %d: %s = %v, want %v (not bit-identical)", j, g.Type().Field(f).Name, gf, wf)
			}
		}
	}
	return nil
}

// --- dist_tcp --------------------------------------------------------------

// distJob is one random-uniform paper-scale schedule set with its
// in-process reference evaluation.
type distJob struct {
	ss   []*schedule.Schedule
	root uint64
	want []sim.Metrics
}

// distOptions is the Monte-Carlo setting of dist_tcp: 1000 realizations,
// one sim worker per worker server.
var distOptions = sim.Options{Realizations: 1000, Workers: 1}

// distJobs is how many schedule sets one dist_tcp op evaluates.
const distJobs = 4

// distTCP runs a dist.Coordinator over loopback worker servers started in
// this process, one connection per server.
type distTCP struct {
	servers []*dist.WorkerServer
	served  []chan error
	pools   []*dist.Pool
	coord   *dist.Coordinator
	jobs    []distJob
}

func setupDistTCP(seed uint64) (workload, error) {
	d := &distTCP{}
	if err := d.start(runtime.NumCPU()); err != nil {
		d.close()
		return nil, err
	}
	pool, err := dist.NewTCPPool(d.addrs(), 0)
	if err != nil {
		d.close()
		return nil, err
	}
	d.pools = append(d.pools, pool)
	d.coord = &dist.Coordinator{Pool: pool}
	for k := 0; k < distJobs; k++ {
		wseed, root := jobSeeds(seed, k)
		w, err := gen.Random(gen.PaperParams(), rng.New(wseed))
		if err != nil {
			d.close()
			return nil, err
		}
		ss, err := fixedSchedules(w, 7)
		if err != nil {
			d.close()
			return nil, err
		}
		want, err := sim.EvaluateAll(ss, distOptions, rng.New(root))
		if err != nil {
			d.close()
			return nil, err
		}
		d.jobs = append(d.jobs, distJob{ss: ss, root: root, want: want})
	}
	// Warm-up: one op, every job once over the wire.
	if err := d.op(0); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// start launches n loopback worker servers.
func (d *distTCP) start(n int) error {
	for i := 0; i < n; i++ {
		srv, err := dist.ListenWorker("127.0.0.1:0")
		if err != nil {
			return err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		d.servers = append(d.servers, srv)
		d.served = append(d.served, served)
	}
	return nil
}

func (d *distTCP) addrs() []string {
	out := make([]string, len(d.servers))
	for i, s := range d.servers {
		out[i] = s.Addr()
	}
	return out
}

// trace switches to a second pool whose connections count their wire
// traffic, with the coordinator reporting to t.
func (d *distTCP) trace(t *tracing) error {
	dial := dist.TCPSpawner(d.addrs(), 0)
	pool, err := dist.NewSpawnPool(len(d.servers), func() (dist.Endpoint, error) {
		ep, err := dial()
		if err != nil {
			return ep, err
		}
		return countEndpoint(ep, &t.wire), nil
	})
	if err != nil {
		return err
	}
	pool.Obs = t.reg
	d.pools = append(d.pools, pool)
	d.coord = &dist.Coordinator{Pool: pool, Obs: t.reg, Trace: t.tr}
	return nil
}

// close shuts the pools down, then drains the servers and waits for their
// accept loops to return.
func (d *distTCP) close() {
	for _, p := range d.pools {
		_ = p.Close() // best effort: servers are shut down next either way
	}
	for i, s := range d.servers {
		s.Shutdown()
		<-d.served[i]
	}
	d.pools, d.servers, d.served = nil, nil, nil
}

// op evaluates every job over the wire, so each op does the same work.
func (d *distTCP) op(int) error {
	for k, job := range d.jobs {
		got, err := d.coord.EvaluateAll(job.ss, distOptions, rng.New(job.root))
		if err != nil {
			return fmt.Errorf("job %d: %w", k, err)
		}
		if err := sameMetrics(got, job.want); err != nil {
			return fmt.Errorf("job %d: %w", k, err)
		}
	}
	return nil
}
