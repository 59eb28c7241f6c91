package wasm

// bodyBuilder assembles a function body instruction by instruction. It is
// used by the synthetic-web generator to produce the miner and non-miner
// modules the crawler later captures and fingerprints.
type bodyBuilder struct {
	buf []byte
}

// newBody returns an empty builder.
func newBody() *bodyBuilder { return &bodyBuilder{} }

// op emits an opcode with no immediate.
func (b *bodyBuilder) op(op opcode) *bodyBuilder {
	b.buf = append(b.buf, byte(op))
	return b
}

// u32 emits an opcode with a u32 immediate (call, br, local.get, ...).
func (b *bodyBuilder) u32(op opcode, v uint32) *bodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = appendU32(b.buf, v)
	return b
}

// mem emits a load/store with align and offset immediates.
func (b *bodyBuilder) mem(op opcode, align, offset uint32) *bodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = appendU32(b.buf, align)
	b.buf = appendU32(b.buf, offset)
	return b
}

// i32Const emits an i32.const.
func (b *bodyBuilder) i32Const(v int32) *bodyBuilder {
	b.buf = append(b.buf, byte(opI32Const))
	b.buf = appendS64(b.buf, int64(v))
	return b
}

// block emits a void block header; pair with end.
func (b *bodyBuilder) block(op opcode) *bodyBuilder {
	b.buf = append(b.buf, byte(op), 0x40)
	return b
}

// end closes the innermost block (or the function).
func (b *bodyBuilder) end() *bodyBuilder { return b.op(opEnd) }

// finish terminates the body and returns the raw bytes.
func (b *bodyBuilder) finish() []byte {
	return append(b.buf, byte(opEnd))
}

// rng is a small deterministic generator (xorshift64*) so that synthesised
// modules are reproducible from a seed. math/rand would work too, but a
// local implementation keeps module bytes stable across Go releases.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// SynthSpec controls synthetic module generation.
type SynthSpec struct {
	Seed      uint64
	Funcs     int     // number of module-defined functions
	BodyOps   int     // approximate instructions per function
	XorWeight float64 // fraction of ALU ops that are XOR/shift/rotate
	MemWeight float64 // fraction of ops touching memory
	Pages     uint32  // linear memory minimum pages
	Names     map[uint32]string
	Imports   []Import
	Exports   []string // exported function names, mapped 1:1 to functions
}

// Synthesize builds a deterministic module from spec. Two calls with equal
// specs yield byte-identical modules — the property the signature database
// relies on when the same miner is served to many sites.
func Synthesize(spec SynthSpec) *Module {
	r := newRng(spec.Seed)
	m := &Module{
		types:    []funcType{{params: []valType{i32, i32}, results: []valType{i32}}},
		imports:  spec.Imports,
		memories: []limits{{min: spec.Pages}},
		Names:    map[uint32]string{},
	}
	for k, v := range spec.Names {
		m.Names[k] = v
	}
	nImports := uint32(m.numImportedFuncs())
	for i := 0; i < spec.Funcs; i++ {
		m.functions = append(m.functions, 0)
		m.Codes = append(m.Codes, Code{
			locals: []localDecl{{count: 4, typ: i64}, {count: 2, typ: i32}},
			Body:   synthBody(r, spec),
		})
	}
	for i, name := range spec.Exports {
		if i >= spec.Funcs {
			break
		}
		m.Exports = append(m.Exports, Export{Name: name, Kind: ExtFunc, Index: nImports + uint32(i)})
	}
	return m
}

// synthBody emits a structurally valid (balanced blocks, sane immediates)
// body whose opcode histogram follows the spec's weights. The bodies are
// not meant to execute; they are meant to *decode* exactly like real miner
// bodies so every fingerprinting code path runs against realistic input.
func synthBody(r *rng, spec SynthSpec) []byte {
	b := newBody()
	b.block(opLoop)
	aluXor := []opcode{opI64Xor, opI64Shl, opI64ShrU, opI64Rotl, opI64Rotr, opI32Xor, opI32Shl, opI32ShrU}
	aluPlain := []opcode{opI64Add, opI64Sub, opI64Mul, opI64And, opI64Or, opI32Add, opI32Mul, opI32And}
	for i := 0; i < spec.BodyOps; i++ {
		roll := float64(r.intn(1000)) / 1000
		switch {
		case roll < spec.MemWeight/2:
			b.i32Const(int32(r.intn(1 << 20)))
			b.mem(opI64Load, 3, uint32(r.intn(2048)))
		case roll < spec.MemWeight:
			b.i32Const(int32(r.intn(1 << 20)))
			b.u32(opLocalGet, uint32(r.intn(4)))
			b.mem(opI64Store, 3, uint32(r.intn(2048)))
		case roll < spec.MemWeight+spec.XorWeight:
			b.u32(opLocalGet, uint32(r.intn(4)))
			b.u32(opLocalGet, uint32(r.intn(4)))
			b.op(aluXor[r.intn(len(aluXor))])
			b.u32(opLocalSet, uint32(r.intn(4)))
		default:
			b.u32(opLocalGet, uint32(r.intn(4)))
			b.u32(opLocalGet, uint32(r.intn(4)))
			b.op(aluPlain[r.intn(len(aluPlain))])
			b.u32(opLocalSet, uint32(r.intn(4)))
		}
	}
	b.end() // loop
	b.u32(opLocalGet, 4)
	return b.finish()
}
