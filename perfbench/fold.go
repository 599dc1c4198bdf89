package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository's modules as the benchmark reports them, in
// output order. Every profile sample lands in exactly one.
var layers = []string{
	"engine", "mobility", "spatial", "radio", "mac", "netstack", "routing",
	"linkstate", "prob", "metrics", "faults", "par", "scenario", "runner",
	"gc", "other",
}

// pkgLayer maps a package under internal/ to its layer. Packages missing
// here (geom, prng, digest, link, roadnet, ...) are helpers, not layers: a
// sample inside one is charged to the nearest layer that called it.
var pkgLayer = map[string]string{
	"sim": "engine", "eventq": "engine",
	"mobility": "mobility",
	"spatial":  "spatial",
	"radio":    "radio", "channel": "radio",
	"mac":      "mac",
	"netstack": "netstack",
	"routing":  "routing", "core": "routing",
	"linkstate": "linkstate",
	"prob":      "prob",
	"metrics":   "metrics",
	"faults":    "faults",
	"par":       "par",
	"scenario":  "scenario",
	"runner":    "runner",
}

const internalPrefix = "github.com/vanetlab/relroute/internal/"

// gcEntries are the runtime functions through which the collector does its
// work: background marking and sweeping, assists charged to allocating
// goroutines, and write-barrier flushes.
var gcEntries = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.GC",
}

// frameLayer classifies one function name: a layer, "gc", "other" for the
// benchmark's own code, or "" when the frame decides nothing.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	for _, p := range gcEntries {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return pkgLayer[rest]
}

// foldProfile reads a gzipped CPU profile as runtime/pprof writes it and
// returns the sample count charged to each layer. A sample goes to the
// innermost frame that frameLayer classifies; a stack with none goes to
// "other".
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("fold: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("fold: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	locLayer := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, f := range fns { // innermost inlined frame first
			if l := frameLayer(p.name(f)); l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	out := make(map[string]int64, len(layers))
	var total int64
	for _, s := range p.samples {
		layer := "other"
		for _, loc := range s.locs { // leaf first
			if l, ok := locLayer[loc]; ok {
				layer = l
				break
			}
		}
		out[layer] += s.count
		total += s.count
	}
	return out, total, nil
}

// profile holds the parts of a pprof Profile message the fold needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	funcName  map[uint64]int64    // function id → string-table index
	strings   []string
}

type sample struct {
	locs  []uint64
	count int64
}

var errProto = errors.New("fold: malformed profile")

// parseProfile decodes the protobuf encoding of perftools.profiles.Profile
// (field numbers from its profile.proto), skipping fields it does not use.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // location_id
					ids, err := varints(v, data)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: [samples, cpu nanoseconds]
					vals, err := varints(v, data)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// name returns a function's name, or "" for an id or index the profile
// does not define.
func (p *profile) name(fn uint64) string {
	if i, ok := p.funcName[fn]; ok && i >= 0 && i < int64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// eachField walks one protobuf message. For varint fields fn gets the value
// in v; for length-delimited fields it gets the bytes in data (and v is
// unset). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		default:
			return errProto
		}
	}
	return nil
}

// varints returns a repeated varint field's values, whether it arrived as
// one unpacked value (data nil) or packed.
func varints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
