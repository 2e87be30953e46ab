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

// profiler collects the CPU profile of a traced run over one or more
// intervals and buckets its samples by the package of each sample's leaf
// frame: the innermost function after inlining, so a pq method inlined
// into a graph search still counts as pq. A nil profiler does nothing.
type profiler struct {
	buf   bytes.Buffer
	total int64
	byPkg map[string]int64
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	counts, err := leafPackages(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if p.byPkg == nil {
		p.byPkg = make(map[string]int64)
	}
	for pkg, n := range counts {
		p.byPkg[pkg] += n
		p.total += n
	}
	return nil
}

// share is the fraction of profiled CPU samples whose leaf frame lies in
// package pkg.
func (p *profiler) share(pkg string) float64 {
	if p == nil {
		return 0
	}
	return ratio(float64(p.byPkg[pkg]), float64(p.total))
}

var errProto = errors.New("malformed profile")

// leafPackages decodes a gzipped pprof profile (profile.proto) just far
// enough to count its samples by the package of their leaf function.
func leafPackages(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc uint64
		n   int64
	}
	var (
		strs     []string
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → id of its innermost function
		funcName = map[uint64]int64{}  // function id → string table index
	)
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample{location_id = 1, value = 2}
			var locs, vals []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					locs, err = appendPacked(locs, wire, v, b)
				case 2:
					vals, err = appendPacked(vals, wire, v, b)
				}
				return err
			})
			if err == nil && len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[0])})
			}
			return err
		case 4: // Location{id = 1, line = 4: Line{function_id = 1}}
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seenLine:
					seenLine = true
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function{id = 1, name = 2}
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i >= 0 && i < int64(len(strs)) {
			name = strs[i]
		}
		out[pkgOf(name)] += s.n
	}
	return out, nil
}

// fields walks the fields of one protobuf message, handing each to fn
// with its number, wire type, and either its scalar value or its bytes.
func fields(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch wire := key & 7; wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), int(key&7), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder writes
// either packed (wire type 2) or one value per field.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// pkgOf returns the import path of a symbol name as the Go runtime
// writes it, e.g. "mcfs/internal/pq" for
// "mcfs/internal/pq.(*Heap[...]).Push".
func pkgOf(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}
