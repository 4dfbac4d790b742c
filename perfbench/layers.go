package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuLayers are the layers the traced run's CPU profile is split into; each
// reports cpu_share.<layer>. "other" takes everything the table does not
// place, so the shares sum to 1.
var cpuLayers = []string{"decode", "slack", "ga_ops", "cache", "sampler", "kernel", "wire", "gc", "other"}

// layerRules maps function-name prefixes to layers. Rules are tried in
// order and the first match wins, so specific rules precede the catch-all
// of their package.
var layerRules = []struct{ prefix, layer string }{
	// schedule: batch kernel and slack sweep; the rest of the package is
	// decoding (CSR build, list decode, delta decode, forward pass).
	{"robsched/internal/schedule.(*Schedule).MakespanBatchInto", "kernel"},
	{"robsched/internal/schedule.(*Schedule).makespanBatch", "kernel"},
	{"robsched/internal/schedule.(*Schedule).MakespanInto", "kernel"},
	{"robsched/internal/schedule.(*Schedule).backward", "slack"},
	{"robsched/internal/schedule.(*Schedule).SlackWith", "slack"},
	{"robsched/internal/schedule.", "decode"},
	// sim: the duration sampler and the batch loop that feeds the kernel.
	{"robsched/internal/sim.(*sampler)", "sampler"},
	{"robsched/internal/sim.newSampler", "sampler"},
	{"robsched/internal/sim.SeedVector", "sampler"},
	{"robsched/internal/sim.RealizeSeeded", "kernel"},
	// robust: the metrics cache and its genotype fingerprint; the rest of
	// robust and the ga engine are the GA operators and the loop running them.
	{"robsched/internal/robust.(*MetricsCache)", "cache"},
	{"robsched/internal/robust.genoEqual", "cache"},
	{"robsched/internal/robust.(*Chromosome).Key", "cache"},
	{"robsched/internal/robust.mixKey", "cache"},
	{"robsched/internal/robust.", "ga_ops"},
	{"robsched/internal/ga.", "ga_ops"},
	// The wire: frame codec, coordinator/worker protocol, sockets, and the
	// benchmark's own counting wrapper.
	{"robsched/internal/wio.", "wire"},
	{"robsched/internal/dist.", "wire"},
	{"main.countingWriter", "wire"},
	{"main.countingReader", "wire"},
	{"net.", "wire"},
	{"internal/poll.", "wire"},
	{"syscall.", "wire"},
	// The runtime's allocator and garbage collector.
	{"runtime.mallocgc", "gc"},
	{"runtime.newobject", "gc"},
	{"runtime.makeslice", "gc"},
	{"runtime.growslice", "gc"},
	{"runtime.gcBgMarkWorker", "gc"},
	{"runtime.gcDrain", "gc"},
	{"runtime.gcAssistAlloc", "gc"},
	{"runtime.scanobject", "gc"},
	{"runtime.greyobject", "gc"},
	{"runtime.markroot", "gc"},
	{"runtime.scanblock", "gc"},
	{"runtime.scanstack", "gc"},
	{"runtime.findObject", "gc"},
	{"runtime.(*gcWork)", "gc"},
	{"runtime.(*mspan)", "gc"},
	{"runtime.(*mheap)", "gc"},
	{"runtime.(*mcache)", "gc"},
	{"runtime.(*mcentral)", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.sweepone", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.wbBufFlush", "gc"},
	{"runtime.bulkBarrierPreWrite", "gc"},
	{"runtime.gcWriteBarrier", "gc"},
	{"runtime.typePointers", "gc"},
}

// libraryPackages are the module's leaf libraries: the rng stream and the
// graph/platform accessors every layer calls.
var libraryPackages = []string{"robsched/internal/rng.", "robsched/internal/dag.", "robsched/internal/platform."}

// classify places one function. stop is false for library frames (the
// standard library, libraryPackages, the rest of the runtime), whose time
// belongs to the caller that asked for it; any other function of this
// module that no rule names stops the walk as "other".
func classify(fn string) (layer string, stop bool) {
	for _, r := range layerRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer, true
		}
	}
	for _, lib := range libraryPackages {
		if strings.HasPrefix(fn, lib) {
			return "other", false
		}
	}
	return "other", strings.HasPrefix(fn, "robsched/")
}

// attribute places one sampled stack, given leaf first: the leaf function's
// layer, or, for a library leaf, that of its nearest caller that has one.
func attribute(stack []string) string {
	for _, fn := range stack {
		if layer, stop := classify(fn); stop {
			return layer
		}
	}
	return "other"
}

// cpuProfile is the part of a runtime/pprof CPU profile the layer split
// needs, decoded from its gzipped protocol-buffer form.
type cpuProfile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]uint64   // function id → name (string table index)
	strs    []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (the last sample value)
}

// stack returns s's function names, leaf first, inlined frames included.
func (p *cpuProfile) stack(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i < uint64(len(p.strs)) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// selfTime is one leaf function's CPU time and the layer it was placed in.
type selfTime struct {
	fn, layer string
	ns        int64
}

// layerShares splits the profile's CPU time over cpuLayers, and returns the
// leaf functions by descending time.
func (p *cpuProfile) layerShares() (map[string]float64, []selfTime, error) {
	byLayer := map[string]int64{}
	byLeaf := map[[2]string]int64{}
	var total int64
	for _, s := range p.samples {
		st := p.stack(s)
		layer := attribute(st)
		byLayer[layer] += s.value
		leaf := "?"
		if len(st) > 0 {
			leaf = st[0]
		}
		byLeaf[[2]string{leaf, layer}] += s.value
		total += s.value
	}
	if total <= 0 {
		return nil, nil, errors.New("CPU profile holds no samples")
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	top := make([]selfTime, 0, len(byLeaf))
	for k, ns := range byLeaf {
		top = append(top, selfTime{k[0], k[1], ns})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].ns != top[j].ns {
			return top[i].ns > top[j].ns
		}
		return top[i].fn < top[j].fn
	})
	return shares, top, nil
}

// parseCPUProfile decodes the runtime/pprof output (profile.proto, gzipped).
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	r := pbReader{raw}
	for !r.done() {
		f, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		switch f.num {
		case 2: // Sample
			s, err := parseSample(f.data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			id, fns, err := parseLocation(f.data)
			if err != nil {
				return nil, err
			}
			p.locs[id] = fns
		case 5: // Function
			id, name, err := parseFunction(f.data)
			if err != nil {
				return nil, err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.data))
		}
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var (
		s    profSample
		vals []uint64
	)
	r := pbReader{b}
	for !r.done() {
		f, err := r.next()
		if err != nil {
			return s, err
		}
		switch f.num {
		case 1:
			if s.locs, err = f.appendUints(s.locs); err != nil {
				return s, err
			}
		case 2:
			if vals, err = f.appendUints(vals); err != nil {
				return s, err
			}
		}
	}
	if len(vals) > 0 {
		s.value = int64(vals[len(vals)-1])
	}
	return s, nil
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	r := pbReader{b}
	for !r.done() {
		f, err := r.next()
		if err != nil {
			return 0, nil, err
		}
		switch f.num {
		case 1:
			id = f.v
		case 4: // Line{function_id = 1, line = 2}
			lr := pbReader{f.data}
			for !lr.done() {
				lf, err := lr.next()
				if err != nil {
					return 0, nil, err
				}
				if lf.num == 1 {
					fns = append(fns, lf.v)
				}
			}
		}
	}
	return id, fns, nil
}

func parseFunction(b []byte) (id, name uint64, err error) {
	r := pbReader{b}
	for !r.done() {
		f, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch f.num {
		case 1:
			id = f.v
		case 2:
			name = f.v
		}
	}
	return id, name, nil
}

// pbReader walks the fields of one protocol-buffer message.
type pbReader struct{ b []byte }

// pbField is one decoded field: v holds varint and fixed-width values,
// data the bytes of a length-delimited one.
type pbField struct {
	num, typ int
	v        uint64
	data     []byte
}

var errTruncated = errors.New("truncated protocol buffer")

func (r *pbReader) done() bool { return len(r.b) == 0 }

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

func (r *pbReader) next() (pbField, error) {
	key, err := r.varint()
	if err != nil {
		return pbField{}, err
	}
	f := pbField{num: int(key >> 3), typ: int(key & 7)}
	switch f.typ {
	case 0:
		f.v, err = r.varint()
	case 1, 5:
		n := 8
		if f.typ == 5 {
			n = 4
		}
		if len(r.b) < n {
			return f, errTruncated
		}
		var buf [8]byte
		copy(buf[:], r.b[:n])
		f.v, r.b = binary.LittleEndian.Uint64(buf[:]), r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return f, errTruncated
			}
			f.data, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = fmt.Errorf("unsupported wire type %d", f.typ)
	}
	return f, err
}

// appendUints appends a repeated integer field, packed or not.
func (f pbField) appendUints(dst []uint64) ([]uint64, error) {
	if f.typ != 2 {
		return append(dst, f.v), nil
	}
	r := pbReader{f.data}
	for !r.done() {
		v, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
