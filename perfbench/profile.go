package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU shares come from a CPU profile the benchmark takes of itself. The
// profile is gzipped profile.proto; this file decodes just the fields
// leaf-frame attribution needs (samples, locations, functions, the
// string table), since the repository has no protobuf dependency.

// unattributed names samples whose leaf frame is neither in a
// repro/internal module nor in the Go runtime.
const unattributed = "unattributed"

// moduleOf maps a symbol name to the module its CPU time is charged to:
// the repro/internal/<module> package, "runtime" for the Go runtime
// (GC, allocation, scheduling, maps), or unattributed.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		m := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		return m
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return unattributed
}

// packageOf extracts the import path from a Go symbol name such as
// "repro/internal/sim.(*executor).run" or
// "repro/internal/gen2.(*Map[...]).Get". Type arguments may contain
// slashes, so the name is cut at the first '(' or '[' first.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares attributes each sample of a gzipped CPU profile to the
// module of its leaf frame and returns each module's share of all
// samples (the shares sum to 1) and the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		mod := unattributed
		if len(s.locs) > 0 {
			if fid, ok := p.leafFunc[s.locs[0]]; ok {
				mod = moduleOf(p.strings[p.funcName[fid]])
			}
		}
		counts[mod] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for m, c := range counts {
		shares[m] = float64(c) / float64(total)
	}
	return shares, total, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	leafFunc map[uint64]uint64 // location id → function id of its innermost line
	funcName map[uint64]int64  // function id → string table index
	strings  []string
}

// decodeProfile reads the profile.proto fields attribution needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6);
// Sample.location_id (1), .value (2); Location.id (1), .line (4);
// Line.function_id (1); Function.id (1), .name (2).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(f int, v uint64, msg []byte) error {
		switch f {
		case 2:
			var s profSample
			err := eachField(msg, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, packed)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, fid uint64
			first := true
			err := eachField(msg, func(f int, v uint64, line []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && first:
					first = false
					return eachField(line, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fid = v
						}
						return nil
					})
				}
				return nil
			})
			if !first {
				p.leafFunc[id] = fid
			}
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends one repeated-integer field occurrence, which
// the encoder writes either as a single varint or packed.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with the field
// number and either the varint value (msg nil) or the length-delimited
// payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)] // never nil, even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
