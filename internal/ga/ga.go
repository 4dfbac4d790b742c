// Package ga implements the standard genetic algorithm of Section 4.2 as a
// reusable engine: constant-size population, uniqueness-checked initial
// population with heuristic seeding, systematic binary tournament selection
// (Goldberg & Deb), single-point crossover and mutation hooks, elitism, and
// the paper's stopping criteria (generation cap or stagnation window).
//
// The engine is generic over the chromosome type; the bi-objective robust
// scheduling chromosome lives in internal/robust. Fitness is evaluated for
// the whole population at once because the paper's ε-constraint fitness
// (Eqn. 8) is population-based: an infeasible individual's value depends on
// the minimum feasible fitness of its generation.
package ga

import (
	"fmt"

	"robsched/internal/rng"
)

// Config assembles the problem-specific hooks and the GA parameters.
// PaperDefaults fills the parameter values used in Section 5.
type Config[T any] struct {
	// PopSize is Np, the constant population size.
	PopSize int
	// CrossoverRate is pc: the fraction of the intermediate population
	// recombined each generation (the rest is copied unchanged).
	CrossoverRate float64
	// MutationRate is pm: the probability that an individual is mutated.
	MutationRate float64
	// MaxGenerations caps the evolution (paper: 1000).
	MaxGenerations int
	// Stagnation stops the run when the best fitness has not improved for
	// this many consecutive generations (paper: 100). Zero disables it.
	Stagnation int

	// Random generates one random individual.
	Random func(r *rng.Source) T
	// Crossover recombines two parents into two offspring. It must not
	// modify the parents.
	Crossover func(a, b T, r *rng.Source) (T, T)
	// Mutate returns a mutated copy of the individual. It must not modify
	// its argument.
	Mutate func(ind T, r *rng.Source) T
	// Evaluate returns the fitness of every individual (larger is better).
	// It must be pure with respect to the population: it must not mutate
	// pop (memoizing per-individual decode state is fine), and it must
	// return the same values when called again on the same individuals.
	// The engine relies on this — elitism may evaluate a population twice
	// per generation.
	Evaluate func(pop []T) []float64
	// EvaluateInto, if non-nil, is preferred over Evaluate on the steady-
	// state path: it writes the fitness of pop into fit (len(fit) ==
	// len(pop)), letting the engine reuse one fitness arena across
	// generations instead of allocating a fresh slice per evaluation. It
	// must agree exactly with Evaluate and obey the same purity contract.
	// At least one of Evaluate and EvaluateInto is required.
	EvaluateInto func(pop []T, fit []float64)
	// EvaluateOne returns the fitness of a single individual. Optional: set
	// it only when fitness is population-independent (each individual's
	// value does not depend on its peers), and it must agree exactly with
	// Evaluate. When present, the engine re-scores only the elite individual
	// after elitism instead of re-evaluating the whole population. Leave nil
	// for population-relative fitness such as the ε-constraint mode.
	EvaluateOne func(ind T) float64
	// Key returns a fingerprint used to reject duplicate individuals when
	// building the initial population (e.g. an FNV-1a hash of the genotype).
	// Optional; nil disables the check. Collisions are benign: a colliding
	// fresh individual is rejected as a duplicate and redrawn.
	Key func(ind T) uint64

	// Release, if non-nil, is handed each individual that Run has provably
	// finished with, so the caller can recycle its storage (the robust
	// scheduler returns dead chromosomes to a free list its operators
	// clone into). An individual is dead once a generation step is complete
	// when it was in the old population or was bred during the step (a
	// crossover child then mutated, or the newborn elitism displaced), is
	// not in the new population and is not the run's best; each is released
	// once. Run compares individuals by identity (any(a) == any(b)), so T
	// must be comparable — a pointer type in practice — when Release is
	// set. A multi-island RunIslands never releases: migrants are shared
	// between islands by pointer, so no island can prove one dead.
	Release func(ind T)

	// Seeds are injected into the initial population before random filling
	// (the paper seeds one HEFT chromosome).
	Seeds []T

	// OnGeneration, if non-nil, observes every generation after evaluation:
	// the generation index (0 = initial population), the population and its
	// fitness values. Both slices are engine-owned arenas reused across
	// generations — observers that retain them past the callback must copy.
	// With Release set, the individuals themselves are recycled once dead,
	// so an observer must copy what it keeps out of them too. Used by the
	// Fig. 2/3 evolution-trace experiments.
	OnGeneration func(gen int, pop []T, fit []float64)

	// Observer, if non-nil, receives per-generation telemetry (GenStats):
	// best/mean fitness, genotype diversity and operator counts. Unlike
	// OnGeneration it is also supported by RunIslands, which buffers each
	// island's stats and emits them deterministically at the epoch
	// barriers. The trajectory is bit-identical for every evaluation-hook
	// parallelism; with no Observer the engine skips all stats work.
	Observer Observer
}

// PaperDefaults sets the GA parameters of Section 5 (Np=20, pc=0.9, pm=0.1,
// 1000 generations, 100-generation stagnation window) on the config,
// leaving hooks untouched.
func (c *Config[T]) PaperDefaults() {
	c.PopSize = 20
	c.CrossoverRate = 0.9
	c.MutationRate = 0.1
	c.MaxGenerations = 1000
	c.Stagnation = 100
}

func (c *Config[T]) validate() error {
	switch {
	case c.PopSize < 2:
		return fmt.Errorf("ga: PopSize=%d must be >= 2", c.PopSize)
	case c.CrossoverRate < 0 || c.CrossoverRate > 1:
		return fmt.Errorf("ga: CrossoverRate=%g out of [0,1]", c.CrossoverRate)
	case c.MutationRate < 0 || c.MutationRate > 1:
		return fmt.Errorf("ga: MutationRate=%g out of [0,1]", c.MutationRate)
	case c.MaxGenerations < 1:
		return fmt.Errorf("ga: MaxGenerations=%d must be >= 1", c.MaxGenerations)
	case c.Stagnation < 0:
		return fmt.Errorf("ga: Stagnation=%d must be >= 0", c.Stagnation)
	case c.Random == nil || c.Crossover == nil || c.Mutate == nil ||
		(c.Evaluate == nil && c.EvaluateInto == nil):
		return fmt.Errorf("ga: Random, Crossover, Mutate and Evaluate (or EvaluateInto) hooks are required")
	case len(c.Seeds) > c.PopSize:
		return fmt.Errorf("ga: %d seeds exceed population size %d", len(c.Seeds), c.PopSize)
	}
	return nil
}

// Result reports the outcome of one GA run.
type Result[T any] struct {
	// Best is the fittest individual ever evaluated.
	Best T
	// BestFitness is its fitness in its final generation's evaluation.
	BestFitness float64
	// Generations is the number of evolution steps performed (excluding
	// the initial population).
	Generations int
	// Stagnated reports whether the run stopped on the stagnation window
	// rather than the generation cap.
	Stagnated bool
}

// genArena holds the engine-owned buffers one population reuses across
// generations: the tournament output, the recombination target (ping-ponged
// with the live population slice), a spare fitness slice and the Fisher–
// Yates permutation scratch. With EvaluateInto set and non-allocating hooks,
// a steady-state generation performs zero slice allocations beyond what the
// operators themselves require.
type genArena[T any] struct {
	inter []T
	spare []T
	fit   []float64
	perm  []int
	born  []T // the step's operator products, tracked only for Release
}

func newArena[T any](np int) *genArena[T] {
	return &genArena[T]{
		inter: make([]T, np),
		spare: make([]T, np),
		fit:   make([]float64, np),
		perm:  make([]int, np),
	}
}

// evalInto evaluates pop, writing into fit when EvaluateInto is configured
// and falling back to the allocating Evaluate hook otherwise. The returned
// slice is the population's fitness either way.
func (c Config[T]) evalInto(pop []T, fit []float64) ([]float64, error) {
	if c.EvaluateInto != nil {
		c.EvaluateInto(pop, fit)
		return fit, nil
	}
	out := c.Evaluate(pop)
	if len(out) != len(pop) {
		return nil, fmt.Errorf("ga: Evaluate returned %d values for %d individuals", len(out), len(pop))
	}
	return out, nil
}

// advance runs one generation step — tournament, recombination, evaluation,
// elitism (the worst of the new population is replaced by elite, then
// re-scored) — using ar's buffers, and returns the new population and its
// fitness. The buffers previously holding pop and fit are recycled into ar
// for the next call, so the steady state allocates nothing. The trajectory
// is bit-identical to the historical allocate-per-generation loop.
func (c Config[T]) advance(pop []T, fit []float64, elite T, ar *genArena[T], r *rng.Source) ([]T, []float64, opCounts, error) {
	c.tournamentInto(ar.inter, pop, fit, ar.perm, r)
	next := ar.spare
	var oc opCounts
	oc, ar.born = c.recombineInto(next, ar.inter, ar.born[:0], r)
	nextFit, err := c.evalInto(next, ar.fit)
	if err != nil {
		return nil, nil, oc, err
	}
	// Elitism: the worst of the new population is replaced by the best
	// of the current one (Section 4.2.3), then re-scored within the new
	// population. With a population-relative fitness (ε-constraint,
	// Eqn. 8) the whole population must be re-evaluated — the
	// carried-over individual is valued against its new peers — but a
	// population-independent fitness only needs the one replaced slot
	// re-scored via EvaluateOne.
	worst := argmin(nextFit)
	next[worst] = elite
	if c.EvaluateOne != nil {
		nextFit[worst] = c.EvaluateOne(elite)
	} else {
		nextFit, err = c.evalInto(next, nextFit)
		if err != nil {
			return nil, nil, oc, err
		}
	}
	ar.spare, ar.fit = pop, fit
	return next, nextFit, oc, nil
}

// Run evolves a population and returns the best individual found.
func Run[T any](c Config[T], r *rng.Source) (Result[T], error) {
	var zero Result[T]
	if err := c.validate(); err != nil {
		return zero, err
	}
	pop := c.initialPopulation(r)
	ar := newArena[T](c.PopSize)
	fit, err := c.evalInto(pop, make([]float64, c.PopSize))
	if err != nil {
		return zero, err
	}
	bestIdx := argmax(fit)
	best, bestFit := pop[bestIdx], fit[bestIdx]
	if c.OnGeneration != nil {
		c.OnGeneration(0, pop, fit)
	}
	if c.Observer != nil {
		c.Observer.ObserveGeneration(c.genStats(0, 0, pop, fit, opCounts{}))
	}
	sinceImprove := 0
	gen := 0
	for gen = 1; gen <= c.MaxGenerations; gen++ {
		var oc opCounts
		old := pop // advance parks this slice in ar.spare; it stays intact until the next step
		pop, fit, oc, err = c.advance(pop, fit, best, ar, r)
		if err != nil {
			return zero, err
		}
		bestIdx = argmax(fit)
		if c.OnGeneration != nil {
			c.OnGeneration(gen, pop, fit)
		}
		if c.Observer != nil {
			c.Observer.ObserveGeneration(c.genStats(0, gen, pop, fit, oc))
		}
		if fit[bestIdx] > bestFit+1e-12 {
			best, bestFit = pop[bestIdx], fit[bestIdx]
			sinceImprove = 0
		} else {
			// Track the current best individual even when fitness is flat,
			// and refresh bestFit downward drift caused by the population-
			// relative component.
			best, bestFit = pop[bestIdx], fit[bestIdx]
			sinceImprove++
		}
		if c.Release != nil {
			c.releaseDead(old, ar.born, pop, best)
		}
		if c.Stagnation > 0 && sinceImprove >= c.Stagnation {
			return Result[T]{Best: best, BestFitness: bestFit, Generations: gen, Stagnated: true}, nil
		}
	}
	return Result[T]{Best: best, BestFitness: bestFit, Generations: c.MaxGenerations}, nil
}

// releaseDead hands every individual of old and born that is in neither
// pop nor best to the Release hook, once per distinct individual
// (selection aliases the same individual into several slots, and a no-op
// operator may return its input). The quadratic scans are over O(Np)
// entries and allocate nothing.
func (c Config[T]) releaseDead(old, born, pop []T, best T) {
	for i, ind := range old {
		if any(ind) == any(best) || contains(pop, ind) || contains(old[:i], ind) {
			continue
		}
		c.Release(ind)
	}
	for i, ind := range born {
		if any(ind) == any(best) || contains(pop, ind) || contains(old, ind) || contains(born[:i], ind) {
			continue
		}
		c.Release(ind)
	}
}

func contains[T any](xs []T, x T) bool {
	for _, y := range xs {
		if any(y) == any(x) {
			return true
		}
	}
	return false
}

// initialPopulation seeds, then fills with unique random individuals
// (Section 4.2.2). After a bounded number of duplicate rejections the
// uniqueness requirement is dropped so degenerate search spaces (e.g. a
// one-task graph) cannot hang the run.
func (c Config[T]) initialPopulation(r *rng.Source) []T {
	pop := make([]T, 0, c.PopSize)
	seen := make(map[uint64]bool, c.PopSize)
	add := func(ind T) bool {
		if c.Key != nil {
			k := c.Key(ind)
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		pop = append(pop, ind)
		return true
	}
	for _, s := range c.Seeds {
		add(s)
	}
	misses := 0
	for len(pop) < c.PopSize {
		if add(c.Random(r)) {
			misses = 0
			continue
		}
		misses++
		if misses > 50*c.PopSize {
			// Give up on uniqueness: accept duplicates.
			saved := c.Key
			c.Key = nil
			for len(pop) < c.PopSize {
				add(c.Random(r))
			}
			c.Key = saved
		}
	}
	return pop
}

// tournamentInto runs the systematic binary tournament into dst (len(pop)):
// the population is shuffled twice and adjacent pairs compete, so every
// individual participates in exactly two tournaments; the best individual
// always wins both (two copies), the worst always loses both (eliminated).
// perm is the engine-owned Fisher–Yates scratch (len(pop)); the RNG draw
// sequence — including the odd-population leftover bout whose second-round
// winner is discarded to keep size Np — matches the historical allocating
// implementation exactly.
func (c Config[T]) tournamentInto(dst, pop []T, fit []float64, perm []int, r *rng.Source) {
	np := len(pop)
	k := 0
	for round := 0; round < 2; round++ {
		r.PermInto(perm)
		for i := 0; i+1 < np; i += 2 {
			a, b := perm[i], perm[i+1]
			if fit[a] >= fit[b] {
				dst[k] = pop[a]
			} else {
				dst[k] = pop[b]
			}
			k++
		}
		if np%2 == 1 {
			// Odd population: the leftover individual fights a random
			// opponent so the intermediate population keeps size Np. The
			// second round's leftover winner falls past Np and is dropped,
			// but its opponent draw is still consumed.
			a := perm[np-1]
			b := perm[r.Intn(np-1)]
			w := pop[a]
			if !(fit[a] >= fit[b]) {
				w = pop[b]
			}
			if k < np {
				dst[k] = w
				k++
			}
		}
	}
}

// tournament is the allocating form of tournamentInto, kept for tests and
// one-off callers.
func (c Config[T]) tournament(pop []T, fit []float64, r *rng.Source) []T {
	out := make([]T, len(pop))
	c.tournamentInto(out, pop, fit, make([]int, len(pop)), r)
	return out
}

// recombineInto applies crossover to a pc fraction of the intermediate
// population (pairing adjacent individuals, which the tournament already
// shuffled) and mutation with probability pm per individual, writing the
// offspring into dst (len(inter), disjoint from inter). The returned
// operator counts feed the Observer; tallying them costs no allocation.
// With a Release hook every operator product is also appended to born,
// which is returned.
func (c Config[T]) recombineInto(dst, inter, born []T, r *rng.Source) (opCounts, []T) {
	np := len(inter)
	var oc opCounts
	track := c.Release != nil
	copy(dst, inter)
	for i := 0; i+1 < np; i += 2 {
		if r.Float64() < c.CrossoverRate {
			dst[i], dst[i+1] = c.Crossover(inter[i], inter[i+1], r)
			oc.crossovers++
			if track {
				born = append(born, dst[i], dst[i+1])
			}
		}
	}
	for i := range dst {
		if r.Float64() < c.MutationRate {
			dst[i] = c.Mutate(dst[i], r)
			oc.mutations++
			if track {
				born = append(born, dst[i])
			}
		}
	}
	return oc, born
}

// recombine is the allocating form of recombineInto, kept for tests and
// one-off callers.
func (c Config[T]) recombine(inter []T, r *rng.Source) []T {
	next := make([]T, len(inter))
	c.recombineInto(next, inter, nil, r)
	return next
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
