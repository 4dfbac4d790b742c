package schedule

import (
	"fmt"
	"sync"

	"robsched/internal/platform"
)

// Decoder is the fast path for decoding GA chromosomes (scheduling string +
// assignment string). All transient state comes from a package-level pool
// and the data-arc CSR is shared per task graph, so Decode costs exactly
// the schedule's two arenas (int32 and float64) plus its struct, and
// Metrics — the fitness path, which builds no schedule at all — allocates
// nothing once the pool is warm.
//
// A Decoder is safe for concurrent use by multiple goroutines.
type Decoder struct {
	w    *platform.Workload
	arcs *arcSet
}

// NewDecoder returns a decoder for the given workload.
func NewDecoder(w *platform.Workload) *Decoder {
	return &Decoder{w: w, arcs: arcsFor(w.G)}
}

// Decode is FromOrder on the decoder's workload, without the per-call
// lookup of the shared arc set.
func (d *Decoder) Decode(order, proc []int) (*Schedule, error) {
	return decodeOrder(d.w, d.arcs, order, proc)
}

// Metrics is the expected-duration summary of a schedule that every GA
// fitness is combined from: M0 and the average and minimum task slack
// (Definition 3.3).
type Metrics struct {
	Makespan float64
	AvgSlack float64
	MinSlack float64
}

// Metrics returns the summary of the (order, proc) chromosome without
// building its schedule: the genotype checks of Decode, then the
// expected-duration analysis over pooled scratch. It rejects exactly the
// genotypes Decode rejects, with the same errors, and its values are
// bit-identical to the decoded schedule's Makespan, AvgSlack and MinSlack
// — buildWith runs the same analysis. Once the pool is warm it allocates
// nothing.
func (d *Decoder) Metrics(order, proc []int) (Metrics, error) {
	n, m := d.w.N(), d.w.M()
	sc := getScratch(n, m)
	defer putScratch(sc)
	if err := sc.checkGenotype(n, m, order, proc); err != nil {
		return Metrics{}, err
	}
	nE := len(d.arcs.predTo)
	if k := 5*n + nE; cap(sc.floats) < k {
		sc.floats = make([]float64, k)
	}
	a := carveAnalysis(sc.floats, n, nE)
	return a.run(d.w, d.arcs, sc.topo[:n], sc.proc[:n], sc.pos[:n], sc.plast[:m])
}

// decodeScratch holds every transient buffer one schedule construction
// needs. Instances are pooled; getScratch grows them to the workload at
// hand.
type decodeScratch struct {
	proc   []int32 // validated task -> processor copy
	topo   []int32 // the scheduling string, or the Kahn order of G_s
	porder []int32 // tasks grouped by processor
	dsucc  []int32 // disjunctive successor of each task, -1 if none
	dpred  []int32 // disjunctive predecessor of each task, -1 if none
	cursor []int32 // Kahn indegrees (explicit-list construction only)
	pos    []int32 // position of each task in topo
	poff   []int32 // m+1 per-processor offsets into porder
	pcur   []int32 // per-processor fill cursors
	plast  []int32 // last task seen on each processor, -1 if none

	floats []float64 // the analysis vectors of Metrics
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func getScratch(n, m int) *decodeScratch {
	sc := scratchPool.Get().(*decodeScratch)
	if cap(sc.proc) < n {
		sc.proc = make([]int32, n)
		sc.topo = make([]int32, n)
		sc.porder = make([]int32, n)
		sc.dsucc = make([]int32, n)
		sc.dpred = make([]int32, n)
		sc.cursor = make([]int32, n)
		sc.pos = make([]int32, n)
	}
	if cap(sc.poff) < m+1 {
		sc.poff = make([]int32, m+1)
		sc.pcur = make([]int32, m)
		sc.plast = make([]int32, m)
	}
	return sc
}

func putScratch(sc *decodeScratch) { scratchPool.Put(sc) }

// decodeOrder is the shared implementation behind FromOrder and
// Decoder.Decode: the genotype checks and per-processor prepass over the
// scheduling string, then the build.
func decodeOrder(w *platform.Workload, arcs *arcSet, order, proc []int) (*Schedule, error) {
	sc := getScratch(w.N(), w.M())
	defer putScratch(sc)
	if err := sc.prepassFromOrder(w, order, proc); err != nil {
		return nil, err
	}
	return buildWith(w, arcs, sc, true)
}

// checkGenotype validates the chromosome shape (permutation, processor
// range) and records the scheduling string, each task's position in it and
// the assignment as int32 in the scratch. Precedence is validated arc by
// arc in the analysis.
func (sc *decodeScratch) checkGenotype(n, m int, order, proc []int) error {
	if len(order) != n {
		return fmt.Errorf("schedule: scheduling string has %d entries, want %d", len(order), n)
	}
	if len(proc) != n {
		return fmt.Errorf("schedule: proc has %d entries, want %d", len(proc), n)
	}
	pos := sc.pos[:n]
	for v := range pos {
		pos[v] = -1
	}
	topo := sc.topo[:n]
	for i, v := range order {
		if v < 0 || v >= n || pos[v] != -1 {
			return fmt.Errorf("schedule: scheduling string is not a permutation of the tasks")
		}
		pos[v] = int32(i)
		topo[i] = int32(v)
	}
	sproc := sc.proc[:n]
	for v, p := range proc {
		if p < 0 || p >= m {
			return fmt.Errorf("schedule: task %d assigned to processor %d out of range [0,%d)", v, p, m)
		}
		sproc[v] = int32(p)
	}
	return nil
}

// prepassFromOrder checks the genotype and computes the per-processor
// grouping and the disjunctive arcs into the scratch.
func (sc *decodeScratch) prepassFromOrder(w *platform.Workload, order, proc []int) error {
	g := w.G
	n, m := w.N(), w.M()
	if err := sc.checkGenotype(n, m, order, proc); err != nil {
		return err
	}
	pcount := sc.poff[:m+1]
	for p := range pcount {
		pcount[p] = 0
	}
	for _, p := range proc {
		pcount[p+1]++
	}
	for p := 1; p <= m; p++ {
		pcount[p] += pcount[p-1]
	}
	// Fill the per-processor grouping in scheduling-string order and detect
	// the disjunctive arcs between consecutive same-processor tasks that are
	// not already data edges.
	pcur := sc.pcur[:m]
	plast := sc.plast[:m]
	for p := 0; p < m; p++ {
		pcur[p] = pcount[p]
		plast[p] = -1
	}
	dsucc := sc.dsucc[:n]
	dpred := sc.dpred[:n]
	for v := range dsucc {
		dsucc[v] = -1
		dpred[v] = -1
	}
	porder := sc.porder[:n]
	for _, v := range order {
		p := proc[v]
		porder[pcur[p]] = int32(v)
		pcur[p]++
		if u := plast[p]; u >= 0 && !g.HasEdge(int(u), v) {
			dsucc[u] = int32(v)
			dpred[v] = u
		}
		plast[p] = int32(v)
	}
	return nil
}

// prepassFromLists is prepassFromOrder for explicit, already-validated
// per-processor orders (the New constructor).
func (sc *decodeScratch) prepassFromLists(w *platform.Workload, proc []int, procOrder [][]int) {
	g := w.G
	n, m := w.N(), w.M()
	sproc := sc.proc[:n]
	for v, p := range proc {
		sproc[v] = int32(p)
	}
	dsucc := sc.dsucc[:n]
	dpred := sc.dpred[:n]
	for v := range dsucc {
		dsucc[v] = -1
		dpred[v] = -1
	}
	porder := sc.porder[:n]
	poff := sc.poff[:m+1]
	k := int32(0)
	for p, list := range procOrder {
		poff[p] = k
		for i, v := range list {
			porder[k] = int32(v)
			k++
			if i > 0 && !g.HasEdge(list[i-1], v) {
				dsucc[list[i-1]] = int32(v)
				dpred[v] = int32(list[i-1])
			}
		}
	}
	poff[m] = k
}

func carveI(a []int32, k int) ([]int32, []int32)       { return a[:k:k], a[k:] }
func carveF(a []float64, k int) ([]float64, []float64) { return a[:k:k], a[k:] }

// analysis holds the vectors of the expected-duration analysis: the
// communication cost of every data arc (parallel to arcs.predTo), and each
// task's expected duration, ASAP start and finish, bottom level and slack.
// Metrics carves one from pooled scratch and discards it; buildWith carves
// one from the schedule's float64 arena and keeps it.
type analysis struct {
	predComm                      []float64
	dur, start, finish, bl, slack []float64
}

// carveAnalysis carves an analysis for n tasks and nE data arcs from f,
// which must hold at least 5n+nE entries.
func carveAnalysis(f []float64, n, nE int) analysis {
	var a analysis
	a.predComm, f = carveF(f, nE)
	a.dur, f = carveF(f, n)
	a.start, f = carveF(f, n)
	a.finish, f = carveF(f, n)
	a.bl, f = carveF(f, n)
	a.slack, _ = carveF(f, n)
	return a
}

// run is the expected-duration analysis of Definition 3.3 — ASAP start and
// finish times, the makespan M0, bottom levels and slack — filling every
// vector of a. topo is the order to evaluate G_s in and pos its inverse;
// proc is the assignment and plast m entries of scratch.
//
// topo doubles as the precedence check: one position comparison per data
// arc rejects every inversion (a same-processor one would close a cycle
// with the disjunctive arc). The disjunctive neighbours of a task are
// simply the last and next task on its processor, with no edge lookup:
// when such a pair is also a data arc, the arc costs exactly 0 (Eqn. 1),
// so counting it twice leaves the max unchanged. Maxima are
// order-independent and every sum has the operands of Schedule.forward
// over the stored dpred arcs, so the start and finish times are
// bit-identical to that pass under expected durations.
func (a analysis) run(w *platform.Workload, arcs *arcSet, topo, proc, pos, plast []int32) (Metrics, error) {
	makespan, err := a.forward(w, arcs, topo, proc, pos, plast)
	if err != nil {
		return Metrics{}, err
	}
	return a.slackSweep(arcs, topo, proc, plast, makespan), nil
}

// forward fills the comm costs, expected durations and ASAP start/finish
// times in topo order, checking precedence, and returns the makespan.
func (a analysis) forward(w *platform.Workload, arcs *arcSet, topo, proc, pos, plast []int32) (float64, error) {
	sys := w.Sys
	predOff, predTo, predData := arcs.predOff, arcs.predTo, arcs.predData
	predComm, dur, start, finish := a.predComm, a.dur, a.start, a.finish
	for p := range plast {
		plast[p] = -1
	}
	makespan := 0.0
	for i, v32 := range topo {
		v := int(v32)
		pv := int(proc[v])
		st := 0.0
		for k := predOff[v]; k < predOff[v+1]; k++ {
			u := predTo[k]
			if pos[u] > int32(i) {
				return 0, fmt.Errorf("schedule: scheduling string is not a topological order of the task graph")
			}
			c := sys.CommCost(int(proc[u]), pv, predData[k])
			predComm[k] = c
			if t := finish[u] + c; t > st {
				st = t
			}
		}
		if u := plast[pv]; u >= 0 {
			if t := finish[u]; t > st {
				st = t
			}
		}
		plast[pv] = v32
		d := w.ExpectedAt(v, pv)
		dur[v] = d
		start[v] = st
		f := st + d
		finish[v] = f
		if f > makespan {
			makespan = f
		}
	}
	return makespan, nil
}

// slackSweep fills the bottom levels under a.dur, walking topo backwards,
// and the slacks against a.start and makespan, and returns the summary.
// plast tracks the next task on each processor, and each succ arc's cost
// is read from its pred-side mirror.
func (a analysis) slackSweep(arcs *arcSet, topo, proc, plast []int32, makespan float64) Metrics {
	predComm, dur, start, bl := a.predComm, a.dur, a.start, a.bl
	succOff, succTo, sMirror := arcs.succOff, arcs.succTo, arcs.sMirror
	for p := range plast {
		plast[p] = -1
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v32 := topo[i]
		v := int(v32)
		pv := proc[v]
		best := 0.0
		for k := succOff[v]; k < succOff[v+1]; k++ {
			if c := predComm[sMirror[k]] + bl[succTo[k]]; c > best {
				best = c
			}
		}
		if u := plast[pv]; u >= 0 {
			if c := bl[u]; c > best {
				best = c
			}
		}
		plast[pv] = v32
		bl[v] = dur[v] + best
	}

	met := Metrics{Makespan: makespan}
	sum := 0.0
	for v, b := range bl {
		sl := makespan - b - start[v]
		// Clamp the tiny negative values floating-point subtraction can
		// produce on critical-path nodes.
		if sl < 0 && sl > -1e-9 {
			sl = 0
		}
		a.slack[v] = sl
		sum += sl
		if v == 0 || sl < met.MinSlack {
			met.MinSlack = sl
		}
	}
	met.AvgSlack = sum / float64(len(bl))
	return met
}

// buildWith constructs a schedule from the scratch prepass into two fresh
// arenas (one int32, one float64). With fromOrder the scratch's validated
// scheduling string is the topological order of G_s, checked arc by arc
// during the analysis, so downstream passes iterate the scheduling string
// itself. The explicit-list path (fromOrder false) derives the order with
// the same FIFO Kahn pass the legacy construction used, arc for arc, so
// its topological orders — and therefore every downstream result — remain
// bit-identical to it.
func buildWith(w *platform.Workload, arcs *arcSet, sc *decodeScratch, fromOrder bool) (*Schedule, error) {
	n, m := w.N(), w.M()
	nE := len(arcs.predTo)
	s := &Schedule{w: w, arcs: arcs}

	ints := make([]int32, 5*n+m+1)
	s.proc, ints = carveI(ints, n)
	s.topo, ints = carveI(ints, n)
	s.porder, ints = carveI(ints, n)
	s.porderOff, ints = carveI(ints, m+1)
	s.dsucc, ints = carveI(ints, n)
	s.dpred, _ = carveI(ints, n)
	a := carveAnalysis(make([]float64, 5*n+nE), n, nE)
	s.predComm, s.expDur, s.start, s.finish, s.bl, s.slack = a.predComm, a.dur, a.start, a.finish, a.bl, a.slack

	copy(s.proc, sc.proc[:n])
	copy(s.porder, sc.porder[:n])
	copy(s.porderOff, sc.poff[:m+1])
	copy(s.dsucc, sc.dsucc[:n])
	copy(s.dpred, sc.dpred[:n])

	pos := sc.pos[:n]
	if fromOrder {
		copy(s.topo, sc.topo[:n])
	} else {
		// FIFO Kahn over G_s, writing the queue directly into topo; a
		// shortfall means the processor orders induced a cycle.
		succOff, succTo, predOff := arcs.succOff, arcs.succTo, arcs.predOff
		indeg := sc.cursor[:n]
		for v := 0; v < n; v++ {
			d := predOff[v+1] - predOff[v]
			if s.dpred[v] >= 0 {
				d++
			}
			indeg[v] = d
		}
		qlen := 0
		for v := 0; v < n; v++ {
			if indeg[v] == 0 {
				s.topo[qlen] = int32(v)
				qlen++
			}
		}
		for head := 0; head < qlen; head++ {
			v := int(s.topo[head])
			for k := succOff[v]; k < succOff[v+1]; k++ {
				to := succTo[k]
				indeg[to]--
				if indeg[to] == 0 {
					s.topo[qlen] = to
					qlen++
				}
			}
			if u := s.dsucc[v]; u >= 0 {
				indeg[u]--
				if indeg[u] == 0 {
					s.topo[qlen] = u
					qlen++
				}
			}
		}
		if qlen != n {
			return nil, fmt.Errorf("schedule: processor orders conflict with precedence constraints (disjunctive graph is cyclic)")
		}
		for i, v := range s.topo {
			pos[v] = int32(i)
		}
	}

	met, err := a.run(w, arcs, s.topo, s.proc, pos, sc.plast[:m])
	if err != nil {
		return nil, err
	}
	s.makespan, s.avgSlack, s.minSlack = met.Makespan, met.AvgSlack, met.MinSlack
	return s, nil
}
