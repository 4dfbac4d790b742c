// Command perfbench is the repository benchmark. It drives three workloads
// through the public packages — the recorded figure pipeline, heavy-tailed
// Monte-Carlo evaluation and loopback-TCP scatter/gather — checks every
// output, and prints the end-to-end metrics. With -trace 1 it makes a
// separate traced run and prints the per-layer metrics instead.
//
//	go run . -workload figures -seed 1 -seconds 30 -trace 0
//
// Run it from the repository root (figures reads results/fig*.csv). The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are a readable report
// stamped with the machine, toolchain, commit and seed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times a measured run sets its workload up; the
// reported setup_s is the median.
const setupRounds = 7

// A workload is one benchmark input set after set-up.
type workload interface {
	// op runs the i-th operation and checks its output; an error counts
	// the op as failed.
	op(i int) error
	// trace attaches t's registry and tracer through the public Obs/Trace
	// fields, so later ops are traced.
	trace(t *tracing) error
	close()
}

var workloads = map[string]func(seed uint64) (workload, error){
	"figures":  setupFigures,
	"mc_heavy": setupMCHeavy,
	"dist_tcp": setupDistTCP,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: figures, mc_heavy or dist_tcp")
	seed := fs.Uint64("seed", 1, "workload seed (1 is the recorded seed)")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics from untraced ops; 1 makes the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload figures|mc_heavy|dist_tcp, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%d %s\n", *name, *seed, *traced, stamp())

	d := time.Duration(*seconds * float64(time.Second))
	var (
		res result
		err error
	)
	if *traced == 1 {
		res, err = tracedRun(stdout, setup, *seed, d)
	} else {
		res, err = measuredRun(stdout, setup, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measuredRun sets the workload up setupRounds times, then runs the closed
// loop untraced and reports the end-to-end metrics.
func measuredRun(out io.Writer, setup func(uint64) (workload, error), seed uint64, d time.Duration) (result, error) {
	var (
		w      workload
		setups []float64
	)
	for k := 0; k < setupRounds; k++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = setup(seed); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	p := runPhase(d, 1, w.op)
	p50, p90, hasP90 := latencyStats(p.lat)
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"op_ms_p50":    {p50, "ms"},
		"ops_per_s":    {float64(p.attempted-p.failed) / p.wall.Seconds(), "1/s"},
		"cpu_s_per_op": {p.cpu.Seconds() / float64(p.attempted), "s"},
		"max_rss_mb":   {maxRSSMB(), "MB"},
	}
	report(out, m)
	fmt.Fprintf(out, "perfbench: samples %d ops in %.3f s; setup_s is the median of %d set-ups %v\n",
		p.attempted, p.wall.Seconds(), setupRounds, setups)
	if len(p.lat) <= 20 {
		fmt.Fprintf(out, "perfbench: op latencies ms %.1f\n", p.lat)
	}
	if hasP90 {
		fmt.Fprintf(out, "perfbench: op_ms_p90 %.4f ms\n", p90)
	} else {
		fmt.Fprintf(out, "perfbench: op_ms_p90 omitted: fewer than ten samples beyond it\n")
	}
	fmt.Fprintf(out, "perfbench: error_rate %g (%d/%d)\n", p.errorRate(), p.failed, p.attempted)
	if p.firstErr != nil {
		fmt.Fprintf(out, "perfbench: first failure: %v\n", p.firstErr)
	}
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// report prints every metric on its own line, sorted by name.
func report(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "perfbench: %-28s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp identifies the machine, toolchain and source revision, so numbers
// from different machines are never compared.
func stamp() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out revision from .git in the working directory
// without running git; "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
