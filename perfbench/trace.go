package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"robsched/internal/obs"
)

// perLayerMetrics lists what the traced run reports, in BENCHMARK.json
// order. Counts, bytes and times are per traced op unless the name says
// otherwise; a metric of a layer the workload does not run reads 0.
var perLayerMetrics = []struct{ name, unit, better string }{
	{"experiments.trace_s", "s", "lower"},
	{"experiments.sweep_s", "s", "lower"},
	{"robust.solves", "count", "lower"},
	{"robust.solve_ms_p50", "ms", "lower"},
	{"ga.generations", "count", "lower"},
	{"ga.crossovers", "count", "lower"},
	{"ga.mutations", "count", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"decode.delta_hits", "count", "higher"},
	{"decode.delta_fallbacks", "count", "lower"},
	{"sim.realizations", "count", "lower"},
	{"sim.batches", "count", "lower"},
	{"sim.realize_ms", "ms", "lower"},
	{"sim.build_sampler_ms", "ms", "lower"},
	{"sim.eval_ms.lognormal", "ms", "lower"},
	{"sim.eval_ms.pareto", "ms", "lower"},
	{"sim.eval_ms.correlated", "ms", "lower"},
	{"dist.realize_ms", "ms", "lower"},
	{"wire.bytes_out", "bytes", "lower"},
	{"wire.bytes_in", "bytes", "lower"},
	{"wire.writes", "count", "lower"},
	{"wire.reads", "count", "lower"},
	{"dist.worker_deaths", "count", "lower"},
	{"dist.inline_ranges", "count", "lower"},
	{"alloc.bytes", "bytes", "lower"},
	{"alloc.objects", "count", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.cpu_share", "ratio", "lower"},
	{"sched.latency_p90_us", "us", "lower"},
	{"cpu_share.decode", "ratio", "lower"},
	{"cpu_share.slack", "ratio", "lower"},
	{"cpu_share.ga_ops", "ratio", "lower"},
	{"cpu_share.cache", "ratio", "lower"},
	{"cpu_share.sampler", "ratio", "lower"},
	{"cpu_share.kernel", "ratio", "lower"},
	{"cpu_share.wire", "ratio", "lower"},
	{"cpu_share.gc", "ratio", "lower"},
	{"cpu_share.other", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// tracing is the telemetry one traced run attaches: a registry for the
// program's counters, a tracer whose spans are kept in memory, and the wire
// counters of dist_tcp's counted connections.
type tracing struct {
	reg   *obs.Registry
	tr    *obs.Tracer
	spans *spanSink
	wire  wireCounts
}

func newTracing() *tracing {
	s := &spanSink{durs: map[string][]float64{}}
	return &tracing{reg: obs.NewRegistry(), tr: obs.NewTracer(s, 1), spans: s}
}

// span records a benchmark span around a public call; no-op on nil.
func (t *tracing) span(name string) func() {
	if t == nil {
		return func() {}
	}
	return t.tr.Scope("bench").Span(name)
}

// spanSink is the tracer's JSONL sink: it keeps the duration of every span
// record by "scope/name" and drops the other records.
type spanSink struct {
	mu   sync.Mutex
	durs map[string][]float64 // ms
}

var spanKind = []byte(`"kind":"span"`)

func (s *spanSink) Write(p []byte) (int, error) {
	if !bytes.Contains(p, spanKind) {
		return len(p), nil
	}
	var rec obs.Record
	if err := json.Unmarshal(p, &rec); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := rec.Scope + "/" + rec.Name
	s.durs[key] = append(s.durs[key], float64(rec.DurNS)/1e6)
	return len(p), nil
}

func (s *spanSink) get(key string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durs[key]
}

func (s *spanSink) sum(key string) float64 {
	var t float64
	for _, d := range s.get(key) {
		t += d
	}
	return t
}

// runtimeMetrics are the allocator, GC and scheduler readings the traced
// run takes before and after its traced phase.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() map[string]metrics.Value {
	ss := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := map[string]metrics.Value{}
	for _, s := range ss {
		out[s.Name] = s.Value
	}
	return out
}

// scalarDelta is after−before of a counter-like runtime metric.
func scalarDelta(before, after metrics.Value) float64 {
	switch after.Kind() {
	case metrics.KindUint64:
		return float64(after.Uint64() - before.Uint64())
	case metrics.KindFloat64:
		return after.Float64() - before.Float64()
	}
	return 0
}

// histP90 is the 90th percentile of the samples a runtime histogram gained
// between two readings, interpolated linearly within the bucket it falls in.
func histP90(b, a *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(a.Counts))
	var total uint64
	for i := range a.Counts {
		counts[i] = a.Counts[i] - b.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := 0.9 * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo, hi := a.Buckets[i], a.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return 0
}

// tracedRun sets the workload up once, runs half the time untraced and
// half traced — registry and tracer attached, runtime metrics read around
// the phase, CPU profile taken — and reports the per-layer metrics.
func tracedRun(out io.Writer, setup func(uint64) (workload, error), seed uint64, d time.Duration) (result, error) {
	w, err := setup(seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer w.close()

	plain := runPhase(d/2, 1, w.op)
	t := newTracing()
	if err := w.trace(t); err != nil {
		return result{}, fmt.Errorf("attaching telemetry: %w", err)
	}
	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	traced := runPhase(d/2, 1, w.op)
	pprof.StopCPUProfile()
	after := readRuntime()

	m, top, err := t.perLayer(plain, traced, before, after, prof.Bytes())
	if err != nil {
		return result{}, err
	}
	report(out, m)
	fmt.Fprintf(out, "perfbench: %d untraced ops, %d traced ops; top CPU self time by leaf function:\n", plain.attempted, traced.attempted)
	var total int64
	for _, s := range top {
		total += s.ns
	}
	for i, s := range top {
		if i == 15 {
			break
		}
		fmt.Fprintf(out, "perfbench:   %5.1f%%  %-8s %s\n", 100*float64(s.ns)/float64(total), s.layer, s.fn)
	}
	res := result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}
	fmt.Fprintf(out, "perfbench: error_rate %g (%d/%d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, p := range []phase{plain, traced} {
		if p.firstErr != nil {
			fmt.Fprintf(out, "perfbench: first failure: %v\n", p.firstErr)
		}
	}
	var shareSum float64
	for _, l := range cpuLayers {
		shareSum += m["cpu_share."+l].Value
	}
	shareOK := math.Abs(shareSum-1) < 1e-9
	fmt.Fprintf(out, "perfbench: cpu_share.* sum to %.12f\n", shareSum)
	res.Correct = res.Failed == 0 && shareOK
	return res, nil
}

// perLayer assembles every per-layer metric from one traced phase.
func (t *tracing) perLayer(plain, traced phase, before, after map[string]metrics.Value, prof []byte) (map[string]metric, []selfTime, error) {
	ops := float64(traced.attempted)
	v := map[string]float64{}
	c := t.reg.Snapshot().Counters
	for _, n := range []string{"ga.generations", "ga.crossovers", "ga.mutations", "cache.hits", "cache.misses",
		"decode.delta_hits", "decode.delta_fallbacks", "sim.realizations", "sim.batches",
		"dist.worker_deaths", "dist.inline_ranges"} {
		v[n] = float64(c[n]) / ops
	}
	if lookups := c["cache.hits"] + c["cache.misses"]; lookups > 0 {
		v["cache.hit_ratio"] = float64(c["cache.hits"]) / float64(lookups)
	}

	sp := t.spans
	v["experiments.trace_s"] = sp.sum("bench/experiments.trace") / 1e3 / ops
	v["experiments.sweep_s"] = sp.sum("bench/experiments.sweep") / 1e3 / ops
	if solves := sp.get("robust/solve"); len(solves) > 0 {
		v["robust.solves"] = float64(len(solves)) / ops
		v["robust.solve_ms_p50"] = median(solves)
	}
	v["sim.realize_ms"] = sp.sum("sim/realize_all") / ops
	v["sim.build_sampler_ms"] = sp.sum("sim/build_sampler") / ops
	for _, model := range mcModels {
		v["sim.eval_ms."+model] = sp.sum("bench/sim.eval."+model) / ops
	}
	v["dist.realize_ms"] = sp.sum("dist/realize_all") / ops

	v["wire.bytes_out"] = float64(t.wire.bytesOut.Load()) / ops
	v["wire.bytes_in"] = float64(t.wire.bytesIn.Load()) / ops
	v["wire.writes"] = float64(t.wire.writes.Load()) / ops
	v["wire.reads"] = float64(t.wire.reads.Load()) / ops

	delta := func(n string) float64 { return scalarDelta(before[n], after[n]) }
	v["alloc.bytes"] = delta("/gc/heap/allocs:bytes") / ops
	v["alloc.objects"] = delta("/gc/heap/allocs:objects") / ops
	v["gc.cycles"] = delta("/gc/cycles/total:gc-cycles") / ops
	if cpu := delta("/cpu/classes/total:cpu-seconds"); cpu > 0 {
		v["gc.cpu_share"] = delta("/cpu/classes/gc/total:cpu-seconds") / cpu
	}
	v["sched.latency_p90_us"] = histP90(before["/sched/latencies:seconds"].Float64Histogram(),
		after["/sched/latencies:seconds"].Float64Histogram()) * 1e6

	p, err := parseCPUProfile(prof)
	if err != nil {
		return nil, nil, err
	}
	shares, top, err := p.layerShares()
	if err != nil {
		return nil, nil, err
	}
	for l, s := range shares {
		v["cpu_share."+l] = s
	}
	p50plain, _, _ := latencyStats(plain.lat)
	p50traced, _, _ := latencyStats(traced.lat)
	v["trace.overhead_ratio"] = p50traced / p50plain

	m := make(map[string]metric, len(perLayerMetrics))
	for _, pm := range perLayerMetrics {
		x := v[pm.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("per-layer metric %s is %g", pm.name, x)
		}
		m[pm.name] = metric{x, pm.unit}
	}
	return m, top, nil
}
