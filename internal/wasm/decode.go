package wasm

import (
	"bytes"
	"errors"
	"fmt"
)

// Decoding errors.
var (
	errBadMagic   = errors.New("wasm: bad magic or version")
	errTruncated  = errors.New("wasm: truncated module")
	errBadSection = errors.New("wasm: malformed section")
)

var magic = []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}

// IsWasm reports whether buf begins with the Wasm magic and version. The
// browser instrumentation uses this to decide whether a captured buffer is
// a module worth fingerprinting.
func IsWasm(buf []byte) bool {
	return len(buf) >= 8 && bytes.Equal(buf[:8], magic)
}

type reader struct {
	b   []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	v, n, err := readU32(r.b[r.off:])
	if err != nil {
		return 0, err
	}
	r.off += n
	return v, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, errTruncated
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errTruncated
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *reader) name() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) limits() (limits, error) {
	var l limits
	flag, err := r.byte()
	if err != nil {
		return l, err
	}
	l.min, err = r.u32()
	if err != nil {
		return l, err
	}
	if flag == 1 {
		l.hasMax = true
		l.max, err = r.u32()
		if err != nil {
			return l, err
		}
	}
	return l, nil
}

// constExpr consumes a constant expression including its end opcode and
// returns the raw bytes.
func (r *reader) constExpr() ([]byte, error) {
	start := r.off
	for {
		op, err := r.byte()
		if err != nil {
			return nil, err
		}
		switch op {
		case 0x0B: // end
			return r.b[start:r.off], nil
		case 0x41: // i32.const
			if _, n, err := readS64(r.b[r.off:]); err != nil {
				return nil, err
			} else {
				r.off += n
			}
		case 0x42: // i64.const
			if _, n, err := readS64(r.b[r.off:]); err != nil {
				return nil, err
			} else {
				r.off += n
			}
		case 0x43: // f32.const
			if _, err := r.take(4); err != nil {
				return nil, err
			}
		case 0x44: // f64.const
			if _, err := r.take(8); err != nil {
				return nil, err
			}
		case 0x23: // global.get
			if _, err := r.u32(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: opcode %#x in const expr", errBadSection, op)
		}
	}
}

// Decode parses a WebAssembly binary module.
func Decode(buf []byte) (*Module, error) {
	if !IsWasm(buf) {
		return nil, errBadMagic
	}
	m := &Module{Names: map[uint32]string{}}
	r := &reader{b: buf, off: 8}
	for r.off < len(r.b) {
		id, err := r.byte()
		if err != nil {
			return nil, err
		}
		size, err := r.u32()
		if err != nil {
			return nil, err
		}
		payload, err := r.take(int(size))
		if err != nil {
			return nil, err
		}
		sr := &reader{b: payload}
		switch id {
		case secType:
			if err := decodeTypes(sr, m); err != nil {
				return nil, err
			}
		case secImport:
			if err := decodeImports(sr, m); err != nil {
				return nil, err
			}
		case secFunction:
			n, err := sr.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				ti, err := sr.u32()
				if err != nil {
					return nil, err
				}
				m.functions = append(m.functions, ti)
			}
		case secMemory:
			n, err := sr.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				l, err := sr.limits()
				if err != nil {
					return nil, err
				}
				m.memories = append(m.memories, l)
			}
		case secGlobal:
			if err := decodeGlobals(sr, m); err != nil {
				return nil, err
			}
		case secExport:
			n, err := sr.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				name, err := sr.name()
				if err != nil {
					return nil, err
				}
				kind, err := sr.byte()
				if err != nil {
					return nil, err
				}
				idx, err := sr.u32()
				if err != nil {
					return nil, err
				}
				m.Exports = append(m.Exports, Export{Name: name, Kind: kind, Index: idx})
			}
		case secCode:
			if err := decodeCodes(sr, m); err != nil {
				return nil, err
			}
		case secData:
			if err := decodeData(sr, m); err != nil {
				return nil, err
			}
		case secCustom:
			name, err := sr.name()
			if err != nil {
				return nil, err
			}
			if name == "name" {
				decodeNameSection(sr, m) // best-effort: tools emit variants
			}
		case secTable, secStart, secElement:
			// Parsed for framing only; contents are irrelevant to
			// fingerprinting and ignored.
		default:
			return nil, fmt.Errorf("%w: unknown id %d", errBadSection, id)
		}
	}
	return m, nil
}

func decodeTypes(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		form, err := r.byte()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return fmt.Errorf("%w: functype form %#x", errBadSection, form)
		}
		var t funcType
		np, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < np; j++ {
			b, err := r.byte()
			if err != nil {
				return err
			}
			t.params = append(t.params, valType(b))
		}
		nr, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nr; j++ {
			b, err := r.byte()
			if err != nil {
				return err
			}
			t.results = append(t.results, valType(b))
		}
		m.types = append(m.types, t)
	}
	return nil
}

func decodeImports(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var im Import
		if im.Module, err = r.name(); err != nil {
			return err
		}
		if im.Name, err = r.name(); err != nil {
			return err
		}
		if im.Kind, err = r.byte(); err != nil {
			return err
		}
		switch im.Kind {
		case ExtFunc:
			if im.Type, err = r.u32(); err != nil {
				return err
			}
		case extMemory:
			if im.mem, err = r.limits(); err != nil {
				return err
			}
		default:
			if _, err = r.u32(); err != nil {
				return err
			}
		}
		m.imports = append(m.imports, im)
	}
	return nil
}

func decodeGlobals(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var g global
		t, err := r.byte()
		if err != nil {
			return err
		}
		g.typ = valType(t)
		mut, err := r.byte()
		if err != nil {
			return err
		}
		g.mutable = mut == 1
		if g.init, err = r.constExpr(); err != nil {
			return err
		}
		m.globals = append(m.globals, g)
	}
	return nil
}

func decodeCodes(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		size, err := r.u32()
		if err != nil {
			return err
		}
		body, err := r.take(int(size))
		if err != nil {
			return err
		}
		br := &reader{b: body}
		var c Code
		nl, err := br.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nl; j++ {
			cnt, err := br.u32()
			if err != nil {
				return err
			}
			tb, err := br.byte()
			if err != nil {
				return err
			}
			c.locals = append(c.locals, localDecl{count: cnt, typ: valType(tb)})
		}
		c.Body = body[br.off:]
		m.Codes = append(m.Codes, c)
	}
	return nil
}

func decodeData(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var d dataSegment
		if d.memIndex, err = r.u32(); err != nil {
			return err
		}
		if d.offset, err = r.constExpr(); err != nil {
			return err
		}
		sz, err := r.u32()
		if err != nil {
			return err
		}
		if d.init, err = r.take(int(sz)); err != nil {
			return err
		}
		m.data = append(m.data, d)
	}
	return nil
}

func decodeNameSection(r *reader, m *Module) {
	for r.off < len(r.b) {
		id, err := r.byte()
		if err != nil {
			return
		}
		size, err := r.u32()
		if err != nil {
			return
		}
		payload, err := r.take(int(size))
		if err != nil {
			return
		}
		if id != 1 { // only function-name subsection
			continue
		}
		sr := &reader{b: payload}
		n, err := sr.u32()
		if err != nil {
			return
		}
		for i := uint32(0); i < n; i++ {
			idx, err := sr.u32()
			if err != nil {
				return
			}
			name, err := sr.name()
			if err != nil {
				return
			}
			m.Names[idx] = name
		}
	}
}
