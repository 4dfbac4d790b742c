package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// phase is one measured closed-loop phase: a single client that sends the
// next op as soon as the previous one returns.
type phase struct {
	lat       []float64 // per-op latency in ms, failed ops included
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration // process user+system CPU over the phase
}

// runPhase runs op(0), op(1), … until d has elapsed and at least minOps ops
// were attempted. The op in flight at the deadline completes and counts.
func runPhase(d time.Duration, minOps int, op func(i int) error) phase {
	var p phase
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		t0 := time.Now()
		err := op(i)
		p.lat = append(p.lat, float64(time.Since(t0))/float64(time.Millisecond))
		p.attempted++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	return p
}

// errorRate is failed ops over attempted ops.
func (p phase) errorRate() float64 { return float64(p.failed) / float64(p.attempted) }

// latencyStats returns the median of ms and its 90th percentile by nearest
// rank. The percentile is reported (hasP90) only when at least ten samples
// lie beyond it; with fewer, it would be one or two slow ops, not a tail.
func latencyStats(ms []float64) (p50, p90 float64, hasP90 bool) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	k := int(math.Ceil(0.9 * float64(len(s))))
	return median(s), s[k-1], len(s)-k >= 10
}

// median of xs (the mean of the two middle values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
