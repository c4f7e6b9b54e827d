package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects a CPU profile in memory while tracing.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling and returns the raw profile.
func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// cpuLayers maps a leaf function's symbol prefix to its cpu.* metric.
// The first matching prefix wins, so the sim sub-layers precede the
// rest of the sim package. Entries marked netOnly are system-call and
// poller frames, shared by file and socket I/O: they count as network
// time only when a net package frame is on the same stack.
var cpuLayers = []struct {
	prefix, metric string
	netOnly        bool
}{
	{"repro/internal/sim.(*Engine)", "cpu.sim.engine_pct", false},
	{"repro/internal/sim.eventHeap", "cpu.sim.engine_pct", false},
	{"repro/internal/sim.(*eventHeap)", "cpu.sim.engine_pct", false},
	{"container/heap.", "cpu.sim.engine_pct", false},
	{"repro/internal/sim.(*FlowResource)", "cpu.sim.flow_pct", false},
	{"repro/internal/sim.(*Flow)", "cpu.sim.flow_pct", false},
	{"repro/internal/sim.(*CorePool)", "cpu.sim.corepool_pct", false},
	{"repro/internal/spark.", "cpu.spark_pct", false},
	{"repro/internal/core.", "cpu.core_pct", false},
	{"repro/internal/serve.", "cpu.serve_pct", false},
	{"repro/internal/optimizer.", "cpu.optimizer_pct", false},
	{"encoding/json.", "cpu.json_pct", false},
	{"net.", "cpu.net_pct", false},
	{"net/", "cpu.net_pct", false},
	{"internal/poll.", "cpu.net_pct", true},
	{"syscall.", "cpu.net_pct", true},
}

// isGC reports frames of the collector: background and assist marking,
// sweeping, scavenging and write barriers.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// onNetStack reports a stack that passes through the net packages.
func onNetStack(frames []string) bool {
	for _, fn := range frames {
		if strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") {
			return true
		}
	}
	return false
}

// attributeCPU turns a pprof CPU profile into cpu.* shares in percent,
// each sample going to the metric stackMetric names.
func attributeCPU(raw []byte) (map[string]float64, error) {
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		total += s.value
		if metric := stackMetric(prof.stack(s.locs)); metric != "" {
			shares[metric] += s.value
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] *= 100 / total
		}
	}
	return shares, nil
}

// stackMetric names the cpu.* metric of one sample's stack, leaf first.
// A stack with a collector frame anywhere counts as GC; one inside
// runtime.mallocgc counts as allocation; any other goes to the layer of
// its leaf function (self time), or to no metric ("").
func stackMetric(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	metric := ""
	for _, fn := range frames {
		if isGC(fn) {
			return "cpu.runtime.gc_pct"
		}
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			metric = "cpu.runtime.malloc_pct"
		}
	}
	if metric != "" {
		return metric
	}
	for _, l := range cpuLayers {
		if strings.HasPrefix(frames[0], l.prefix) {
			if l.netOnly && !onNetStack(frames) {
				return ""
			}
			return l.metric
		}
	}
	return ""
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locs  []uint64
	value float64
}

// stack returns the function names of a sample, leaf first, inlined
// frames included.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if i := p.functions[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping samples, locations, functions and the string table.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var values []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					values = appendVarints(values, w, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = float64(int64(values[len(values)-1]))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// appendVarints appends a repeated integer field given either one
// unpacked value or a packed run.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v; length-delimited fields in b.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
