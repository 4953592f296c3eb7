package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layers are the repository's packages under internal/. A stack is
// charged to the layer of its innermost repository frame, so Go runtime
// frames (map access, malloc, memmove) and standard-library frames count
// against the repository code that called them. Stacks with no
// repository frame are background garbage collection ("gc") or
// everything else ("other"); the benchmark's own frames are "bench".
const (
	layerGC    = "gc"
	layerOther = "other"
	layerBench = "bench"
)

// repoLayer returns the layer a single function belongs to, if any.
func repoLayer(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return "", false
	}
	if strings.HasPrefix(fn, "main.") {
		return layerBench, true
	}
	return "", false
}

// gcRoots are the entry points of the runtime's background collector
// goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf charges a stack, innermost frame first, to one layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return layerGC
			}
		}
	}
	return layerOther
}

// foldCPUProfile adds the samples of one gzipped pprof CPU profile to
// into, keyed by layer.
func foldCPUProfile(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	// Field numbers follow profile.proto: Profile.sample = 2,
	// .location = 4, .function = 5, .string_table = 6.
	err = pbFields(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := pbFields(b, func(num, wire int, v uint64, b []byte) error {
				vals, err := pbUints(wire, v, b)
				switch num {
				case 1: // location_id
					s.locs = append(s.locs, vals...)
				case 2: // value: [samples, cpu ns]
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: function_id = 1
					return pbFields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		into[layerOf(stack)] += s.count
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks the fields of one protobuf message. For varint and
// fixed fields v holds the value; for length-delimited fields b holds
// the bytes.
func pbFields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field that may be packed.
func pbUints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// memRecord is one allocation site's cumulative counters.
type memRecord struct {
	bytes, objects int64
	layer          string
}

// memSnapshot reads the runtime's allocation profile, keyed by call
// stack. Two collections first publish every allocation made so far.
func memSnapshot() map[string]memRecord {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[string]memRecord, len(recs))
	var names []string
	for i := range recs {
		r := &recs[i]
		stk := r.Stack()
		key := fmt.Sprint(stk)
		names = names[:0]
		frames := runtime.CallersFrames(stk)
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		out[key] = memRecord{bytes: r.AllocBytes, objects: r.AllocObjects, layer: layerOf(names)}
	}
	return out
}

// foldAllocs charges the allocations made between two snapshots to
// layers, returning each layer's share of the sampled bytes. Each site's
// sampled bytes are scaled the way pprof does, to undo the sampler's
// bias toward large allocations.
func foldAllocs(before, after map[string]memRecord, into map[string]float64) {
	rate := float64(runtime.MemProfileRate)
	for key, a := range after {
		b := before[key]
		bytes, objects := float64(a.bytes-b.bytes), float64(a.objects-b.objects)
		if bytes <= 0 || objects <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-bytes/objects/rate))
		}
		into[a.layer] += bytes * scale
	}
}
