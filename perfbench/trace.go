package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"triplea/internal/array"
	"triplea/internal/topo"
)

// span is one call the benchmark made into a layer.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the benchmark started
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil
// *spanLog records nothing, so the untraced runs pay one nil check.
type spanLog struct {
	epoch  time.Time
	spans  []span
	parent int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// open starts a span that encloses the spans recorded until close.
func (l *spanLog) open(name string) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: l.parent, Name: name,
		StartUS: float64(time.Since(l.epoch).Nanoseconds()) / 1e3,
	})
	l.parent = len(l.spans)
	return l.parent
}

func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.DurUS = float64(time.Since(l.epoch).Nanoseconds())/1e3 - s.StartUS
	l.parent = s.Parent
}

// record logs a finished call that began at start and reports its
// duration in seconds, whether or not the log is on.
func (l *spanLog) record(name string, start time.Time) float64 {
	d := time.Since(start)
	if l != nil {
		l.spans = append(l.spans, span{
			ID: len(l.spans) + 1, Parent: l.parent, Name: name,
			StartUS: float64(start.Sub(l.epoch).Nanoseconds()) / 1e3,
			DurUS:   float64(d.Nanoseconds()) / 1e3,
		})
	}
	return d.Seconds()
}

// timedHooks times every call into the autonomic core. It only
// observes: each call is passed through unchanged.
type timedHooks struct {
	inner array.Hooks
	calls uint64
	ns    int64
}

func (h *timedHooks) OnPageComplete(pc array.PageComplete) {
	start := time.Now()
	h.inner.OnPageComplete(pc)
	h.ns += int64(time.Since(start))
	h.calls++
}

func (h *timedHooks) WriteTarget(lpn int64, resident topo.FIMMID) topo.FIMMID {
	start := time.Now()
	t := h.inner.WriteTarget(lpn, resident)
	h.ns += int64(time.Since(start))
	h.calls++
	return t
}

// cpuLayers are the layers profile samples are charged to, named after
// the repo's packages. "bench" is this program (the hook wrapper);
// "goruntime" takes the samples with no repo frame at all.
var cpuLayers = []string{
	"simx", "pcie", "cluster", "fimm", "nand", "ftl", "core", "array", "fault", "metrics", "goruntime", "bench",
}

// frameLayer maps a profiled function name to the layer it belongs to,
// or "" for frames that are charged to their caller: the standard
// library (container/heap, maps, memmove) and the repo's small value
// packages (topo, units, trace).
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "triplea/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range cpuLayers {
		if l == pkg {
			return pkg
		}
	}
	return ""
}

// layerCPU charges each sample of a gzipped pprof CPU profile to the
// innermost frame that belongs to a layer, and returns the sampled CPU
// nanoseconds per layer.
func layerCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	funcLayer := make(map[uint64]string, len(p.funcName))
	for id, name := range p.funcName {
		if int(name) < len(p.strings) {
			funcLayer[id] = frameLayer(p.strings[name])
		}
	}
	cpu := make(map[string]int64)
	for _, s := range p.samples {
		layer := "goruntime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break frames
				}
			}
		}
		cpu[layer] += s.value
	}
	return cpu, nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (the last sample value)
}

// parseProfile decodes the protobuf wire format of profile.proto:
// Profile{2: sample, 4: location, 5: function, 6: string_table},
// Sample{1: location_id, 2: value}, Location{1: id, 4: line},
// Line{1: function_id}, Function{1: id, 2: name}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err := walkFields(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, m)
				case 2:
					vals = appendPacked(vals, v, m)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(m, func(f int, v uint64, _ []byte) error {
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
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := walkFields(msg, func(f int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated scalar field, which the encoder
// writes either packed (msg holds varints) or as one varint per field.
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

var errTruncated = errors.New("pprof: truncated message")

// walkFields calls visit for each field of a protobuf message: v holds
// a varint or fixed value, msg a length-delimited payload (else nil).
func walkFields(b []byte, visit func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			if msg == nil {
				msg = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := visit(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}
