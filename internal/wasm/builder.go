package wasm

// BodyBuilder assembles a function body instruction by instruction. It is
// used by the synthetic-web generator to produce the miner and non-miner
// modules the crawler later captures and fingerprints.
type BodyBuilder struct {
	buf []byte
}

// NewBody returns an empty builder.
func NewBody() *BodyBuilder { return &BodyBuilder{} }

// Op emits an opcode with no immediate.
func (b *BodyBuilder) Op(op Opcode) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	return b
}

// U32 emits an opcode with a u32 immediate (call, br, local.get, ...).
func (b *BodyBuilder) U32(op Opcode, v uint32) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = appendU32(b.buf, v)
	return b
}

// Mem emits a load/store with align and offset immediates.
func (b *BodyBuilder) Mem(op Opcode, align, offset uint32) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = appendU32(b.buf, align)
	b.buf = appendU32(b.buf, offset)
	return b
}

// I32Const emits an i32.const.
func (b *BodyBuilder) I32Const(v int32) *BodyBuilder {
	b.buf = append(b.buf, byte(OpI32Const))
	b.buf = appendS64(b.buf, int64(v))
	return b
}

// Block emits a void block header; pair with End.
func (b *BodyBuilder) Block(op Opcode) *BodyBuilder {
	b.buf = append(b.buf, byte(op), 0x40)
	return b
}

// End closes the innermost block (or the function).
func (b *BodyBuilder) End() *BodyBuilder { return b.Op(OpEnd) }

// Finish terminates the body and returns the raw bytes.
func (b *BodyBuilder) Finish() []byte {
	return append(b.buf, byte(OpEnd))
}

// Raw returns the bytes emitted so far without a terminator.
func (b *BodyBuilder) Raw() []byte { return b.buf }

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
		Types:    []FuncType{{Params: []ValType{I32, I32}, Results: []ValType{I32}}},
		Imports:  spec.Imports,
		Memories: []Limits{{Min: spec.Pages}},
		Names:    map[uint32]string{},
	}
	for k, v := range spec.Names {
		m.Names[k] = v
	}
	nImports := uint32(m.NumImportedFuncs())
	for i := 0; i < spec.Funcs; i++ {
		m.Functions = append(m.Functions, 0)
		m.Codes = append(m.Codes, Code{
			Locals: []LocalDecl{{Count: 4, Type: I64}, {Count: 2, Type: I32}},
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
	b := NewBody()
	b.Block(OpLoop)
	aluXor := []Opcode{OpI64Xor, OpI64Shl, OpI64ShrU, OpI64Rotl, OpI64Rotr, OpI32Xor, OpI32Shl, OpI32ShrU}
	aluPlain := []Opcode{OpI64Add, OpI64Sub, OpI64Mul, OpI64And, OpI64Or, OpI32Add, OpI32Mul, OpI32And}
	for i := 0; i < spec.BodyOps; i++ {
		roll := float64(r.intn(1000)) / 1000
		switch {
		case roll < spec.MemWeight/2:
			b.I32Const(int32(r.intn(1 << 20)))
			b.Mem(OpI64Load, 3, uint32(r.intn(2048)))
		case roll < spec.MemWeight:
			b.I32Const(int32(r.intn(1 << 20)))
			b.U32(OpLocalGet, uint32(r.intn(4)))
			b.Mem(OpI64Store, 3, uint32(r.intn(2048)))
		case roll < spec.MemWeight+spec.XorWeight:
			b.U32(OpLocalGet, uint32(r.intn(4)))
			b.U32(OpLocalGet, uint32(r.intn(4)))
			b.Op(aluXor[r.intn(len(aluXor))])
			b.U32(OpLocalSet, uint32(r.intn(4)))
		default:
			b.U32(OpLocalGet, uint32(r.intn(4)))
			b.U32(OpLocalGet, uint32(r.intn(4)))
			b.Op(aluPlain[r.intn(len(aluPlain))])
			b.U32(OpLocalSet, uint32(r.intn(4)))
		}
	}
	b.End() // loop
	b.U32(OpLocalGet, 4)
	return b.Finish()
}
