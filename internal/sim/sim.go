// Package sim implements the paper's evaluation methodology: Monte-Carlo
// realizations of the non-deterministic task durations (Section 3.1's
// uniform model c_ij ~ U(b_ij, (2·UL_ij−1)·b_ij)) and the two robustness
// metrics computed from them — R1, the inverse expected relative tardiness
// (Definition 3.6), and R2, the inverse schedule miss rate (Definition 3.7).
//
// Realizations are processed in lane-batched groups: a worker samples
// Options.BatchSize realizations up front, gathers each schedule's
// assigned durations into lane-major buffers, and runs one
// structure-of-arrays forward longest-path sweep over the schedule's
// precomputed CSR disjunctive graph that advances all lanes per arc
// (schedule.MakespanBatchInto). Batches fan out across Options.Workers
// goroutines with per-realization deterministic RNG streams.
//
// Each realization draws the uniform block of the full n×m duration matrix,
// so the random stream is a function of the workload shape alone. The
// inverse-CDF transforms of the non-uniform models run only for the
// (task, processor) pairs some evaluated schedule reads; the paper's uniform
// model, whose transform is one multiply-add, fills every entry.
//
// Every metric — including the P50/P95/P99 quantiles, which are exact order
// statistics of the retained per-realization makespan vector — is computed
// from the makespans in realization order, so all results are bit-identical
// regardless of worker count and batch width. (Before the batched engine,
// P50/P95/P99 were the median of per-worker P² estimates and the
// mean/std/tardiness accumulator was merged per worker, so those fields
// varied in the last bits — quantiles by far more — with Options.Workers.)
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// DefaultBatchSize is the number of realizations a worker processes per
// kernel batch when Options.BatchSize is zero. Eight lanes of float64 fill
// one cache line, which measures fastest for the paper-scale workloads.
const DefaultBatchSize = 8

// DurationModel selects the per-(task, processor) duration distribution.
// The zero value is the paper's uniform model, and selecting it (with
// CorrNone) keeps the original sampling path bit-identical.
type DurationModel uint8

const (
	// ModelUniform is the paper's c_ij ~ U(b_ij, (2·UL_ij−1)·b_ij).
	ModelUniform DurationModel = iota
	// ModelLognormal matches the uniform model's mean and variance per
	// (task, processor) pair but draws from a lognormal — the service-time
	// distribution observed on real shared clusters, with a right tail the
	// uniform model cannot produce.
	ModelLognormal
	// ModelBoundedPareto keeps the uniform model's support [b, (2·UL−1)·b]
	// but distributes mass as a truncated Pareto with tail index
	// Options.ParetoShape — most draws near the best case, rare draws near
	// the worst, the classic heavy-tail stress for slack-based robustness.
	ModelBoundedPareto

	numDurationModels
)

// String returns the registry name of the model ("uniform", "lognormal",
// "pareto").
func (m DurationModel) String() string {
	switch m {
	case ModelUniform:
		return "uniform"
	case ModelLognormal:
		return "lognormal"
	case ModelBoundedPareto:
		return "pareto"
	}
	return fmt.Sprintf("DurationModel(%d)", uint8(m))
}

// ParseDurationModel is the inverse of DurationModel.String, used by the
// -scenario CLI plumbing.
func ParseDurationModel(s string) (DurationModel, error) {
	switch s {
	case "uniform":
		return ModelUniform, nil
	case "lognormal":
		return ModelLognormal, nil
	case "pareto":
		return ModelBoundedPareto, nil
	}
	return 0, fmt.Errorf("sim: unknown duration model %q (want uniform|lognormal|pareto)", s)
}

// Correlation selects the cross-task dependence structure of one
// realization's duration matrix. The zero value (independent entries) is
// the paper's assumption.
type Correlation uint8

const (
	// CorrNone draws every matrix entry independently (the paper's model).
	CorrNone Correlation = iota
	// CorrShared multiplies all durations on a processor by one shared
	// mean-1 lognormal load factor per realization (COV Options.LoadCOV):
	// a busy processor is busy for every task it runs, which is the
	// correlation the paper's independence assumption hides.
	CorrShared
	// CorrIndep multiplies every matrix entry by its own independent mean-1
	// lognormal factor with the same COV as CorrShared. Each entry's
	// marginal distribution is identical to CorrShared's — only the
	// cross-task dependence differs — so the pair isolates the effect of
	// correlation at equal marginal variance.
	CorrIndep

	numCorrelations
)

// String returns the registry name of the correlation mode ("none",
// "shared", "indep").
func (c Correlation) String() string {
	switch c {
	case CorrNone:
		return "none"
	case CorrShared:
		return "shared"
	case CorrIndep:
		return "indep"
	}
	return fmt.Sprintf("Correlation(%d)", uint8(c))
}

// ParseCorrelation is the inverse of Correlation.String.
func ParseCorrelation(s string) (Correlation, error) {
	switch s {
	case "none":
		return CorrNone, nil
	case "shared":
		return CorrShared, nil
	case "indep":
		return CorrIndep, nil
	}
	return 0, fmt.Errorf("sim: unknown correlation mode %q (want none|shared|indep)", s)
}

// Options configures a Monte-Carlo evaluation.
type Options struct {
	// Realizations is the number of sampled executions (paper: 1000).
	Realizations int
	// Workers caps the parallel fan-out; 0 means GOMAXPROCS.
	Workers int
	// Deadline, when positive, additionally reports the fraction of
	// realizations whose makespan exceeds it (a user-deadline robustness
	// view beyond the paper's M0-relative miss rate).
	Deadline float64
	// Antithetic pairs each realization with its mirrored counterpart
	// (uniform draws u and 1−u). The makespan is monotone in every task
	// duration, so the paired makespans are negatively correlated and the
	// mean estimator's variance strictly drops for the same sample count —
	// classic antithetic-variates variance reduction. Odd realization
	// counts leave the last sample unpaired.
	Antithetic bool
	// BatchSize is the number of realizations evaluated per batched kernel
	// sweep; 0 means DefaultBatchSize. Any width yields bit-identical
	// results — this is purely a throughput knob.
	BatchSize int

	// Model selects the duration distribution. The zero value is the
	// paper's uniform model; combined with CorrNone it runs the original
	// sampling path bit-identically.
	Model DurationModel
	// Corr selects the cross-task correlation structure of each sampled
	// duration matrix. Non-CorrNone modes require LoadCOV > 0.
	Corr Correlation
	// LoadCOV is the coefficient of variation of the mean-1 lognormal load
	// factor applied by CorrShared/CorrIndep. Ignored under CorrNone.
	LoadCOV float64
	// ParetoShape is the tail index α of ModelBoundedPareto (smaller is
	// heavier; 1.5 is a typical heavy tail). Ignored by the other models.
	ParetoShape float64

	// Obs, if non-nil, receives engine telemetry: the deterministic
	// counters sim.realize_calls / sim.realizations / sim.schedules /
	// sim.batches and the sim.batch_occupancy histogram (all independent of
	// Workers), plus sim.worker_claims, a histogram of batches claimed per
	// worker whose shape — unlike every other instrument — depends on the
	// worker count and scheduling. Nil disables with zero overhead.
	Obs *obs.Registry
	// Trace, if non-nil, receives a "sim/realize_all" span per engine run
	// (realizations, schedules, batches, workers attributes; wall-clock
	// duration) and a "sim/build_sampler" span for the sample-table setup.
	Trace *obs.Tracer
}

// PaperOptions returns the paper's evaluation settings (1000 realizations).
func PaperOptions() Options { return Options{Realizations: 1000} }

// OptionError reports an invalid Options field. It is the typed error
// returned by Validate, so callers can tell a misconfigured evaluation
// apart from an execution failure and report which knob is wrong.
type OptionError struct {
	Field  string
	Value  float64
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("sim: Options.%s=%g %s", e.Field, e.Value, e.Reason)
}

// Validate checks the option set without clamping anything: every consumer
// of Options (here and in the repair/fault evaluators) rejects bad values
// with an *OptionError instead of silently correcting them.
func (o Options) Validate() error {
	if o.Realizations < 1 {
		return &OptionError{"Realizations", float64(o.Realizations), "must be >= 1"}
	}
	if o.Workers < 0 {
		return &OptionError{"Workers", float64(o.Workers), "must be >= 0"}
	}
	if o.BatchSize < 0 {
		return &OptionError{"BatchSize", float64(o.BatchSize), "must be >= 0"}
	}
	if math.IsNaN(o.Deadline) || math.IsInf(o.Deadline, 0) {
		return &OptionError{"Deadline", o.Deadline, "must be finite"}
	}
	if o.Model >= numDurationModels {
		return &OptionError{"Model", float64(o.Model), "is not a known duration model"}
	}
	if o.Corr >= numCorrelations {
		return &OptionError{"Corr", float64(o.Corr), "is not a known correlation mode"}
	}
	if math.IsNaN(o.LoadCOV) || math.IsInf(o.LoadCOV, 0) || o.LoadCOV < 0 {
		return &OptionError{"LoadCOV", o.LoadCOV, "must be finite and >= 0"}
	}
	if o.Corr != CorrNone && o.LoadCOV == 0 {
		return &OptionError{"LoadCOV", o.LoadCOV, "must be > 0 when Corr is set"}
	}
	if math.IsNaN(o.ParetoShape) || math.IsInf(o.ParetoShape, 0) || o.ParetoShape < 0 {
		return &OptionError{"ParetoShape", o.ParetoShape, "must be finite and >= 0"}
	}
	if o.Model == ModelBoundedPareto && o.ParetoShape == 0 {
		return &OptionError{"ParetoShape", o.ParetoShape, "must be > 0 for the bounded-Pareto model"}
	}
	return nil
}

func (o Options) workers() int {
	w := o.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// batch returns the kernel batch width for a run of r realizations.
func (o Options) batch(r int) int {
	b := o.BatchSize
	if b == 0 {
		b = DefaultBatchSize
	}
	if b > r {
		b = r
	}
	return b
}

// Metrics summarizes the realized behaviour of one schedule.
type Metrics struct {
	// M0 is the expected makespan the schedule was planned with.
	M0 float64
	// Realizations is the number of Monte-Carlo samples behind the stats.
	Realizations int

	// MeanMakespan, StdMakespan, MinMakespan, MaxMakespan summarize the
	// realized makespan distribution.
	MeanMakespan float64
	StdMakespan  float64
	MinMakespan  float64
	MaxMakespan  float64

	// MeanTardiness is E[δ] with δ_i = max(0, M_i − M0)/M0 (Eqn. 4).
	MeanTardiness float64
	// MissRate is α = |{M_i > M0}|/N (Definition 3.7).
	MissRate float64
	// R1 = 1/E[δ] (Eqn. 5); +Inf when no realization is tardy.
	R1 float64
	// R2 = 1/α (Eqn. 6); +Inf when no realization misses.
	R2 float64

	// P50, P95 and P99 are exact order statistics of the realized makespan
	// distribution (tail behaviour the mean hides): the smallest sampled
	// makespan not exceeded by at least the given fraction of realizations,
	// the same convention as DeadlineForConfidence.
	P50, P95, P99 float64
	// DeadlineMissRate is the fraction of realizations whose makespan
	// exceeded Options.Deadline; NaN when no deadline was set.
	DeadlineMissRate float64
}

// accum folds one makespan vector into the scalar statistics. Mean and
// variance use Welford's online algorithm — the naive sum-of-squares form
// cancels catastrophically when the makespan spread is tiny relative to its
// magnitude (e.g. deterministic workloads). Realizations are always fed in
// realization order, so the accumulation is worker-independent.
type accum struct {
	n         int
	meanM     float64
	m2        float64 // sum of squared deviations from the running mean
	minM      float64
	maxM      float64
	sumDelta  float64
	missCount int

	deadline       float64 // 0 disables
	deadlineMisses int
}

func newAccum() accum {
	return accum{minM: math.Inf(1), maxM: math.Inf(-1)}
}

func (a *accum) add(m, m0 float64) {
	if a.deadline > 0 && m > a.deadline {
		a.deadlineMisses++
	}
	a.n++
	d := m - a.meanM
	a.meanM += d / float64(a.n)
	a.m2 += d * (m - a.meanM)
	if m < a.minM {
		a.minM = m
	}
	if m > a.maxM {
		a.maxM = m
	}
	if m > m0*(1+1e-12) {
		a.missCount++
		a.sumDelta += (m - m0) / m0
	}
}

func (a accum) metrics(m0 float64) Metrics {
	n := float64(a.n)
	mean := a.meanM
	variance := a.m2 / n
	if variance < 0 {
		variance = 0
	}
	meanDelta := a.sumDelta / n
	missRate := float64(a.missCount) / n
	r1 := math.Inf(1)
	if meanDelta > 0 {
		r1 = 1 / meanDelta
	}
	r2 := math.Inf(1)
	if missRate > 0 {
		r2 = 1 / missRate
	}
	deadlineMiss := math.NaN()
	if a.deadline > 0 {
		deadlineMiss = float64(a.deadlineMisses) / n
	}
	return Metrics{
		M0:               m0,
		Realizations:     a.n,
		MeanMakespan:     mean,
		StdMakespan:      math.Sqrt(variance),
		MinMakespan:      a.minM,
		MaxMakespan:      a.maxM,
		MeanTardiness:    meanDelta,
		MissRate:         missRate,
		R1:               r1,
		R2:               r2,
		DeadlineMissRate: deadlineMiss,
		// Quantiles are filled by the callers from the sorted sample.
		P50: math.NaN(), P95: math.NaN(), P99: math.NaN(),
	}
}

// sampler precomputes the per-(task, processor) constants of the duration
// distributions U(b, (2·UL−1)·b), so the per-realization sampling loop is
// pure RNG and multiply-add work with no matrix lookups. A non-positive
// width marks a degenerate pair (UL == 1), which consumes no random draw —
// exactly like Workload.SampleDuration, so the streams stay bit-identical.
//
// Every realization draws one uniform per non-degenerate pair. The general
// path transforms and stores only the pairs in read, the union of the
// evaluated schedules' assignments; the uniform path fills every entry.
type sampler struct {
	lo    []float64 // b_ij (row-major n×m)
	width []float64 // hi − b, hi = (2·UL−1)·b
	sum   []float64 // b + hi, the antithetic mirror constant
	draws int       // non-degenerate pairs == duration uniforms per realization
	read  []bool    // pair (t, p) is some schedule's assignment of t

	// Model extension. The legacy fields above fully describe the uniform
	// model; the general path (any non-default Model/Corr) additionally
	// uses the tables below, filled for read pairs only. mu/sigma are the
	// lognormal parameters matched per pair to the uniform model's mean and
	// variance; paretoK and invAlpha are the bounded-Pareto constants of
	// tail index α over the same support [lo, lo+width] (see pareto).
	model     DurationModel
	corr      Correlation
	mu, sigma []float64
	paretoK   []float64
	invAlpha  float64
	// Mean-1 lognormal load-factor parameters: sigma² = ln(1+LoadCOV²),
	// mu = −sigma²/2.
	loadMu, loadSigma float64
	loadDraws         int // uniforms consumed for load factors per realization
	m                 int // processors (column count of the row-major tables)
}

// general reports whether this sampler needs the generalized path; false
// means the original uniform code runs, bit-identical to the pre-model
// engine.
func (sp *sampler) general() bool {
	return sp.model != ModelUniform || sp.corr != CorrNone
}

// scratch returns the per-realization uniform block length the worker must
// provide: load-factor draws first, then one draw per non-degenerate pair.
func (sp *sampler) scratch() int { return sp.loadDraws + sp.draws }

// newSampler builds the sampling tables for w, whose read mask is the union
// of the schedules' assignments.
func newSampler(w *platform.Workload, ss []*schedule.Schedule, opt Options) sampler {
	n, m := w.N(), w.M()
	sp := sampler{
		lo:    make([]float64, n*m),
		width: make([]float64, n*m),
		sum:   make([]float64, n*m),
		read:  make([]bool, n*m),
		model: opt.Model,
		corr:  opt.Corr,
		m:     m,
	}
	for _, s := range ss {
		for t := 0; t < n; t++ {
			sp.read[t*m+s.Proc(t)] = true
		}
	}
	for t := 0; t < n; t++ {
		for p := 0; p < m; p++ {
			b := w.BCET.At(t, p)
			hi := (2*w.UL.At(t, p) - 1) * b
			k := t*m + p
			sp.lo[k] = b
			sp.width[k] = hi - b
			sp.sum[k] = b + hi
			if hi > b {
				sp.draws++
			}
		}
	}
	if opt.Model == ModelLognormal {
		// Match the uniform model's first two moments per pair:
		// mean μ = (b+hi)/2, variance v = (hi−b)²/12, then
		// sigma² = ln(1+v/μ²), mu = ln μ − sigma²/2.
		sp.mu = make([]float64, n*m)
		sp.sigma = make([]float64, n*m)
		for k := range sp.lo {
			if sp.width[k] <= 0 || !sp.read[k] {
				continue
			}
			mean := sp.sum[k] / 2
			v := sp.width[k] * sp.width[k] / 12
			s2 := math.Log(1 + v/(mean*mean))
			sp.mu[k] = math.Log(mean) - s2/2
			sp.sigma[k] = math.Sqrt(s2)
		}
	}
	if opt.Model == ModelBoundedPareto {
		sp.paretoK = make([]float64, n*m)
		sp.invAlpha = 1 / opt.ParetoShape
		for k, lo := range sp.lo {
			if sp.width[k] <= 0 || !sp.read[k] {
				continue
			}
			sp.paretoK[k] = 1 - math.Pow(lo/(lo+sp.width[k]), opt.ParetoShape)
		}
	}
	if opt.Corr != CorrNone {
		s2 := math.Log(1 + opt.LoadCOV*opt.LoadCOV)
		sp.loadMu = -s2 / 2
		sp.loadSigma = math.Sqrt(s2)
		if opt.Corr == CorrShared {
			sp.loadDraws = m
		} else {
			sp.loadDraws = n * m
		}
	}
	return sp
}

// sampleInto draws one full duration matrix into lane `lane` of dst, which
// is (task, processor)-major with the given lane stride: entry (t, p) of
// the realization lands at dst[(t*m+p)*stride+lane]. The draw per pair is
// lo + width·U[0,1), the same floating-point expression as
// Workload.SampleDuration / rng.Uniform. The realization's sp.draws uniforms
// are generated as one rng.Float64s block into the scratch u and consumed in
// pair order — the identical draw sequence, minus a function call per draw.
func (sp *sampler) sampleInto(dst []float64, stride, lane int, r *rng.Source, u []float64) {
	u = u[:sp.draws]
	r.Float64s(u)
	j := 0
	for k, w := range sp.width {
		if w <= 0 {
			dst[k*stride+lane] = sp.lo[k]
			continue
		}
		dst[k*stride+lane] = sp.lo[k] + w*u[j]
		j++
	}
}

// sampleMirroredInto is sampleInto with every non-degenerate draw reflected
// across its interval midpoint: (b + hi) − (b + width·U), the antithetic
// counterpart stream, operation for operation the expression the scalar
// engine's mirrored wrapper evaluated.
func (sp *sampler) sampleMirroredInto(dst []float64, stride, lane int, r *rng.Source, u []float64) {
	u = u[:sp.draws]
	r.Float64s(u)
	j := 0
	for k, w := range sp.width {
		if w <= 0 {
			dst[k*stride+lane] = sp.lo[k]
			continue
		}
		dst[k*stride+lane] = sp.sum[k] - (sp.lo[k] + w*u[j])
		j++
	}
}

// sampleGeneralInto is the model-extension sampling path: any duration model
// combined with any correlation mode, normal or antithetic-mirrored. One
// realization consumes sp.scratch() uniforms as a single rng.Float64s block —
// load-factor draws first, then one draw per non-degenerate pair — so the
// draw schedule is a pure function of the workload shape and the realization
// seed, independent of worker count, batch width, shard boundaries and the
// schedules evaluated.
//
// Only read pairs are transformed and stored; an unread pair's uniform is
// skipped, and so is its CorrIndep load factor. Each stored entry is the
// same pure function of the same uniform whatever the read mask, so a
// schedule's durations do not depend on which other schedules share the
// call.
//
// The antithetic mirror is uniform across every model: the mirrored
// realization evaluates the identical transforms at 1−u for every uniform in
// the block. Float64 outputs are dyadic rationals k/2^53, so 1−u is exactly
// representable and the mirror is exact — no rounding asymmetry between a
// realization and its antithetic partner. (The legacy uniform-only path keeps
// its historical midpoint-reflection expression instead; the two paths never
// mix, since this one only runs for non-default Model/Corr.)
//
// load is caller scratch of length sp.m, used only under CorrShared.
func (sp *sampler) sampleGeneralInto(dst []float64, stride, lane int, r *rng.Source, u, load []float64, mirrored bool) {
	u = u[:sp.scratch()]
	r.Float64s(u)
	if mirrored {
		for i := range u {
			u[i] = 1 - u[i]
		}
	}
	if sp.corr == CorrShared {
		for p := 0; p < sp.m; p++ {
			load[p] = rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, u[p])
		}
	}
	j := sp.loadDraws
	for k, w := range sp.width {
		if !sp.read[k] {
			if w > 0 {
				j++
			}
			continue
		}
		v := sp.lo[k]
		if w > 0 {
			uu := u[j]
			j++
			switch sp.model {
			case ModelUniform:
				v = sp.lo[k] + w*uu
			case ModelLognormal:
				v = rng.LogNormalQuantile(sp.mu[k], sp.sigma[k], uu)
			case ModelBoundedPareto:
				v = sp.pareto(k, uu)
			}
		}
		// The load factor multiplies every entry on the processor —
		// degenerate (deterministic) pairs included: a loaded processor
		// slows all of its tasks.
		switch sp.corr {
		case CorrShared:
			v *= load[k%sp.m]
		case CorrIndep:
			v *= rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, u[k])
		}
		dst[k*stride+lane] = v
	}
}

// pareto is the bounded-Pareto quantile of pair k at u. paretoK[k] =
// 1−(lo/hi)^α and invAlpha = 1/α are hoisted out of the draw; they are the
// float64 values rng.BoundedParetoQuantile(lo, hi = lo+width, α, u)
// recomputes per call, so the result is bit-equal to it.
func (sp *sampler) pareto(k int, u float64) float64 {
	return sp.lo[k] / math.Pow(1-u*sp.paretoK[k], sp.invAlpha)
}

// SeedVector derives the per-realization RNG seed vector RealizeAll uses:
// one root.Uint64() draw per realization, in realization order, independent
// of any parallelism. With antithetic pairing, realizations 2k and 2k+1
// share a seed; the odd one mirrors every uniform draw.
//
// The vector is the whole stream-derivation scheme: a coordinator that
// computes it once and hands contiguous windows (with their global base
// index, which carries the antithetic parity) to RealizeSeeded in other
// worker processes reproduces exactly the sample set of a single-process
// RealizeAll, shard boundaries included.
func SeedVector(realizations int, antithetic bool, root *rng.Source) []uint64 {
	seeds := make([]uint64, realizations)
	for i := range seeds {
		if antithetic && i%2 == 1 {
			seeds[i] = seeds[i-1]
		} else {
			seeds[i] = root.Uint64()
		}
	}
	return seeds
}

// RealizeAll is the shared Monte-Carlo engine: it runs opt.Realizations
// sampled executions of every schedule (all of the same workload, under
// common random numbers — each realization draws the uniforms of the full
// n×m duration matrix once, transforms the entries the schedules read and
// applies them to every schedule) and returns the realized
// makespans indexed [schedule][realization]. Evaluate, EvaluateAll, CVaR
// and DeadlineForConfidence are all views over this one engine.
//
// The root source seeds one independent stream per realization, and each
// lane's floating-point operations follow the scalar order, so the returned
// vectors are bit-identical for every Workers and BatchSize setting.
func RealizeAll(ss []*schedule.Schedule, opt Options, root *rng.Source) ([][]float64, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return RealizeSeeded(ss, opt, SeedVector(opt.Realizations, opt.Antithetic, root), 0)
}

// RealizeSeeded runs the batched Monte-Carlo engine over an explicit window
// of the realization space: seeds[l] is the RNG seed of global realization
// base+l (a window of the SeedVector derivation), and the returned makespans
// are indexed [schedule][l]. opt.Realizations is ignored; the window length
// is len(seeds). base matters only under Options.Antithetic, where the
// global index parity selects the mirrored sampler, so windows that split an
// antithetic pair still reproduce the exact single-process draws.
//
// RealizeAll is RealizeSeeded over the full vector at base 0; a scatter/
// gather coordinator (internal/dist) runs disjoint windows in worker
// processes and concatenates the results in base order, which is
// bit-identical to the single-process run for any partition.
func RealizeSeeded(ss []*schedule.Schedule, opt Options, seeds []uint64, base int) ([][]float64, error) {
	vopt := opt
	vopt.Realizations = len(seeds)
	if err := vopt.Validate(); err != nil {
		return nil, err
	}
	if base < 0 {
		return nil, &OptionError{"base", float64(base), "must be >= 0"}
	}
	if len(ss) == 0 {
		return nil, fmt.Errorf("sim: no schedules to evaluate")
	}
	w := ss[0].Workload()
	for _, s := range ss[1:] {
		if s.Workload() != w {
			return nil, fmt.Errorf("sim: schedules must share one workload for common random numbers")
		}
	}
	n, m := w.N(), w.M()
	R := len(seeds)
	B := opt.batch(R)
	buildDone := opt.Trace.Scope("sim").Span("build_sampler")
	sp := newSampler(w, ss, opt)
	buildDone()
	mks := make([][]float64, len(ss))
	arena := make([]float64, len(ss)*R)
	for j := range mks {
		mks[j], arena = arena[:R:R], arena[R:]
	}
	nBatches := (R + B - 1) / B
	nw := opt.workers()
	if nw > nBatches {
		nw = nBatches
	}
	// Telemetry: the counters and the occupancy histogram aggregate
	// worker-independent facts (every run issues the same batch widths);
	// only worker_claims reflects the actual racy batch assignment.
	opt.Obs.Counter("sim.realize_calls").Inc()
	opt.Obs.Counter("sim.realizations").Add(int64(R))
	opt.Obs.Counter("sim.schedules").Add(int64(len(ss)))
	opt.Obs.Counter("sim.batches").Add(int64(nBatches))
	occupancy := opt.Obs.Histogram("sim.batch_occupancy", []float64{1, 2, 4, 8, 16, 32, 64})
	claims := opt.Obs.Histogram("sim.worker_claims", []float64{1, 2, 4, 8, 16, 64, 256, 1024})
	if opt.Trace != nil {
		defer opt.Trace.Scope("sim").Span("realize_all",
			obs.F("realizations", float64(R)),
			obs.F("schedules", float64(len(ss))),
			obs.F("batches", float64(nBatches)),
			obs.F("batch_size", float64(B)),
			obs.F("workers", float64(nw)),
		)()
	}
	// Workers claim whole batches off a shared cursor; since every batch
	// writes a disjoint [lo, lo+b) realization range, the assignment of
	// batches to workers cannot affect the result.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs := make([]float64, n*m*B) // sampled matrices, lane-minor
			lane := make([]float64, n*B)   // one schedule's assigned durations
			st := make([]float64, B)
			finish := make([]float64, n*B)
			out := make([]float64, B)
			u := make([]float64, sp.scratch()) // one realization's uniform block
			load := make([]float64, m)         // CorrShared per-processor factors
			claimed := 0
			defer func() { claims.Observe(float64(claimed)) }()
			for {
				lo := int(cursor.Add(int64(B))) - B
				if lo >= R {
					return
				}
				claimed++
				b := B
				if lo+b > R {
					b = R - lo
				}
				occupancy.Observe(float64(b))
				for l := 0; l < b; l++ {
					i := lo + l
					r := rng.New(seeds[i])
					// The antithetic mirror follows the global realization
					// index, so a window starting on an odd index keeps
					// mirroring exactly the realizations the full run would.
					mirror := opt.Antithetic && (base+i)%2 == 1
					switch {
					case sp.general():
						sp.sampleGeneralInto(durs, b, l, r, u, load, mirror)
					case mirror:
						sp.sampleMirroredInto(durs, b, l, r, u)
					default:
						sp.sampleInto(durs, b, l, r, u)
					}
				}
				for j, s := range ss {
					for t := 0; t < n; t++ {
						base := (t*m + s.Proc(t)) * b
						copy(lane[t*b:t*b+b], durs[base:base+b])
					}
					s.MakespanBatchInto(b, lane[:n*b], st[:b], finish[:n*b], out[:b])
					copy(mks[j][lo:lo+b], out[:b])
				}
			}
		}()
	}
	wg.Wait()
	return mks, nil
}

// Evaluate runs opt.Realizations Monte-Carlo executions of the schedule and
// returns its robustness metrics. The root source seeds one independent
// stream per realization, so results do not depend on the worker count.
func Evaluate(s *schedule.Schedule, opt Options, root *rng.Source) (Metrics, error) {
	ms, err := EvaluateAll([]*schedule.Schedule{s}, opt, root)
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// EvaluateAll evaluates several schedules of the *same workload* under
// common random numbers: each realization draws the uniforms of the full
// n×m duration matrix once, transforms the entries the schedules read and
// applies them to every schedule, which is how the paper
// compares the GA's schedules against HEFT's on identical environments
// (and is the variance-reduction friendly way to estimate improvements).
//
// All metric fields, quantiles included, are computed from the full
// per-realization makespan vector in realization order and are therefore
// bit-identical for every Workers and BatchSize setting.
func EvaluateAll(ss []*schedule.Schedule, opt Options, root *rng.Source) ([]Metrics, error) {
	mks, err := RealizeAll(ss, opt, root)
	if err != nil {
		return nil, err
	}
	out := make([]Metrics, len(ss))
	for j, s := range ss {
		out[j] = MetricsFromSamples(s.Makespan(), mks[j], opt.Deadline)
	}
	return out, nil
}

// quantileSorted returns the exact empirical p-quantile of a sorted sample:
// the smallest sampled value x such that at least a p fraction of the
// samples are <= x (i.e. sorted[ceil(p·n)−1]).
func quantileSorted(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// MetricsFromSamples assembles the full metric set from an explicit slice
// of realized makespans against the planned makespan m0. The quantiles are
// exact order statistics of the sample. Other simulators (e.g. the dynamic
// online baseline and the runtime-repair comparator) use this to report
// results comparable to Evaluate's. deadline <= 0 disables the deadline
// miss rate.
func MetricsFromSamples(m0 float64, makespans []float64, deadline float64) Metrics {
	a := newAccum()
	a.deadline = deadline
	for _, m := range makespans {
		a.add(m, m0)
	}
	out := a.metrics(m0)
	sorted := append([]float64(nil), makespans...)
	sort.Float64s(sorted)
	if len(sorted) > 0 {
		out.P50 = quantileSorted(sorted, 0.50)
		out.P95 = quantileSorted(sorted, 0.95)
		out.P99 = quantileSorted(sorted, 0.99)
	}
	return out
}

// DeadlineForConfidence returns the smallest deadline D such that the
// schedule meets D in at least the given fraction of sampled realizations:
// the empirical `confidence`-quantile of the realized makespan. This is
// the planning question robustness ultimately answers — "what completion
// time can I promise with 95% confidence?". It runs on the same batched
// parallel engine as Evaluate and honours Options.Workers, Antithetic and
// BatchSize; with equal Options and root seed it returns exactly the
// corresponding order statistic of Evaluate's makespan sample.
func DeadlineForConfidence(s *schedule.Schedule, confidence float64, opt Options, root *rng.Source) (float64, error) {
	if confidence <= 0 || confidence > 1 {
		return 0, fmt.Errorf("sim: confidence %g out of (0, 1]", confidence)
	}
	mks, err := RealizeAll([]*schedule.Schedule{s}, opt, root)
	if err != nil {
		return 0, err
	}
	makespans := mks[0]
	sort.Float64s(makespans)
	return quantileSorted(makespans, confidence), nil
}

// CVaR returns the conditional value at risk of the schedule's makespan at
// level q: the mean of the worst (1−q) fraction of sampled realizations —
// what "bad days" cost on average, the risk measure conservative planners
// optimize for. Like DeadlineForConfidence it is a view over the shared
// batched engine and honours Options.Workers, Antithetic and BatchSize.
func CVaR(s *schedule.Schedule, q float64, opt Options, root *rng.Source) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("sim: CVaR level %g out of (0, 1)", q)
	}
	mks, err := RealizeAll([]*schedule.Schedule{s}, opt, root)
	if err != nil {
		return 0, err
	}
	makespans := mks[0]
	sort.Float64s(makespans)
	cut := int(math.Floor(q * float64(len(makespans))))
	if cut >= len(makespans) {
		cut = len(makespans) - 1
	}
	tail := makespans[cut:]
	sum := 0.0
	for _, m := range tail {
		sum += m
	}
	return sum / float64(len(tail)), nil
}

// Realize samples a single duration vector for the schedule's assignment —
// one concrete execution environment — using the given stream. Useful for
// examples and for tests that need a single realization.
func Realize(s *schedule.Schedule, r *rng.Source) []float64 {
	w := s.Workload()
	dur := make([]float64, w.N())
	for t := range dur {
		dur[t] = w.SampleDuration(t, s.Proc(t), r)
	}
	return dur
}
