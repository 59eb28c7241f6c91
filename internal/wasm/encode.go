package wasm

// Encode serialises m into the WebAssembly binary format.
func Encode(m *Module) []byte {
	out := []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00} // \0asm v1

	section := func(id byte, payload []byte) {
		if len(payload) == 0 {
			return
		}
		out = append(out, id)
		out = appendU32(out, uint32(len(payload)))
		out = append(out, payload...)
	}

	// Type section.
	if len(m.types) > 0 {
		p := appendU32(nil, uint32(len(m.types)))
		for _, t := range m.types {
			p = append(p, 0x60)
			p = appendU32(p, uint32(len(t.params)))
			for _, v := range t.params {
				p = append(p, byte(v))
			}
			p = appendU32(p, uint32(len(t.results)))
			for _, v := range t.results {
				p = append(p, byte(v))
			}
		}
		section(secType, p)
	}

	// Import section.
	if len(m.imports) > 0 {
		p := appendU32(nil, uint32(len(m.imports)))
		for _, im := range m.imports {
			p = appendName(p, im.Module)
			p = appendName(p, im.Name)
			p = append(p, im.Kind)
			switch im.Kind {
			case ExtFunc:
				p = appendU32(p, im.Type)
			case extMemory:
				p = appendLimits(p, im.mem)
			default:
				// Tables/globals are not imported by any module we model.
				p = appendU32(p, 0)
			}
		}
		section(secImport, p)
	}

	// Function section.
	if len(m.functions) > 0 {
		p := appendU32(nil, uint32(len(m.functions)))
		for _, ti := range m.functions {
			p = appendU32(p, ti)
		}
		section(secFunction, p)
	}

	// Memory section.
	if len(m.memories) > 0 {
		p := appendU32(nil, uint32(len(m.memories)))
		for _, mem := range m.memories {
			p = appendLimits(p, mem)
		}
		section(secMemory, p)
	}

	// Global section.
	if len(m.globals) > 0 {
		p := appendU32(nil, uint32(len(m.globals)))
		for _, g := range m.globals {
			p = append(p, byte(g.typ))
			if g.mutable {
				p = append(p, 1)
			} else {
				p = append(p, 0)
			}
			p = append(p, g.init...)
		}
		section(secGlobal, p)
	}

	// Export section.
	if len(m.Exports) > 0 {
		p := appendU32(nil, uint32(len(m.Exports)))
		for _, e := range m.Exports {
			p = appendName(p, e.Name)
			p = append(p, e.Kind)
			p = appendU32(p, e.Index)
		}
		section(secExport, p)
	}

	// Code section.
	if len(m.Codes) > 0 {
		p := appendU32(nil, uint32(len(m.Codes)))
		for _, c := range m.Codes {
			var body []byte
			body = appendU32(body, uint32(len(c.locals)))
			for _, l := range c.locals {
				body = appendU32(body, l.count)
				body = append(body, byte(l.typ))
			}
			body = append(body, c.Body...)
			p = appendU32(p, uint32(len(body)))
			p = append(p, body...)
		}
		section(secCode, p)
	}

	// Data section.
	if len(m.data) > 0 {
		p := appendU32(nil, uint32(len(m.data)))
		for _, d := range m.data {
			p = appendU32(p, d.memIndex)
			p = append(p, d.offset...)
			p = appendU32(p, uint32(len(d.init)))
			p = append(p, d.init...)
		}
		section(secData, p)
	}

	// Name custom section (function names subsection only).
	if len(m.Names) > 0 {
		var names []byte
		names = appendU32(names, uint32(len(m.Names)))
		// Deterministic order: ascending function index.
		idxs := make([]uint32, 0, len(m.Names))
		for i := range m.Names {
			idxs = append(idxs, i)
		}
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				if idxs[j] < idxs[i] {
					idxs[i], idxs[j] = idxs[j], idxs[i]
				}
			}
		}
		names = names[:0]
		names = appendU32(names, uint32(len(idxs)))
		for _, i := range idxs {
			names = appendU32(names, i)
			names = appendName(names, m.Names[i])
		}
		var sub []byte
		sub = append(sub, 1) // subsection id 1: function names
		sub = appendU32(sub, uint32(len(names)))
		sub = append(sub, names...)
		p := appendName(nil, "name")
		p = append(p, sub...)
		section(secCustom, p)
	}

	return out
}

func appendName(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendLimits(dst []byte, l limits) []byte {
	if l.hasMax {
		dst = append(dst, 1)
		dst = appendU32(dst, l.min)
		return appendU32(dst, l.max)
	}
	dst = append(dst, 0)
	return appendU32(dst, l.min)
}
