package main

import (
	"bytes"
	"debug/elf"
	"debug/gosym"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"robsched/internal/gen"
	"robsched/internal/rng"
	"robsched/internal/sim"
)

// TestLayerTableCoversEveryLayer checks the table against the functions
// linked into this test binary, which imports every layer: each named layer
// must own at least one of them.
func TestLayerTableCoversEveryLayer(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Skipf("symbol table not readable as ELF: %v", err)
	}
	defer f.Close()
	pcln, text := f.Section(".gopclntab"), f.Section(".text")
	if pcln == nil || text == nil {
		t.Skip("no Go function table in the test binary")
	}
	data, err := pcln.Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]int{}
	for _, fn := range tab.Funcs {
		if layer, stop := classify(fn.Name); stop {
			owned[layer]++
		}
	}
	for _, l := range cpuLayers {
		if l != "other" && owned[l] == 0 {
			t.Errorf("layer %s maps no function of the program", l)
		}
	}
}

func TestUnknownFunctionsGoToOther(t *testing.T) {
	for _, stack := range [][]string{
		nil,
		{"example.com/unknown.Func"},
		{"math.Exp", "sort.Float64s", "main.main", "runtime.main"},
		{"robsched/internal/heft.HEFT", "robsched/internal/robust.HEFTBaseline"},
	} {
		if got := attribute(stack); got != "other" {
			t.Errorf("attribute(%q) = %s, want other", stack, got)
		}
	}
}

func TestLibraryFramesGoToTheirCaller(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.archLog", "robsched/internal/rng.LogNormalQuantile", "robsched/internal/sim.(*sampler).sampleGeneralInto"}, "sampler"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "robsched/internal/robust.(*Chromosome).Clone"}, "gc"},
		{[]string{"robsched/internal/dag.(*Graph).Data", "robsched/internal/schedule.buildWith"}, "decode"},
		{[]string{"robsched/internal/schedule.(*Schedule).backward", "robsched/internal/schedule.buildWith"}, "slack"},
		{[]string{"robsched/internal/robust.(*MetricsCache).lookup", "robsched/internal/robust.(*evaluator).ensureMetrics"}, "cache"},
		{[]string{"encoding/json.checkValid", "robsched/internal/dist.(*Coordinator).RealizeAll"}, "wire"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestParseCPUProfile decodes a real profile of the Monte-Carlo engine.
func TestParseCPUProfile(t *testing.T) {
	w, err := gen.Random(gen.PaperParams(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := fixedSchedules(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := sim.EvaluateAll(ss, sim.PaperOptions(), rng.New(2)); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, top, err := p.layerShares()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if shares["sampler"]+shares["kernel"] == 0 {
		t.Errorf("no Monte-Carlo time placed in sampler or kernel; top leaves %v", top[:min(5, len(top))])
	}
}
