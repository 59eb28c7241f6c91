package wasm

import "fmt"

// opcode is a single-byte MVP instruction opcode.
type opcode byte

// The opcodes the builder, the walker and the feature extractor name.
const (
	opBlock        opcode = 0x02
	opLoop         opcode = 0x03
	opIf           opcode = 0x04
	opEnd          opcode = 0x0B
	opBr           opcode = 0x0C
	opBrIf         opcode = 0x0D
	opBrTable      opcode = 0x0E
	opCall         opcode = 0x10
	opCallIndirect opcode = 0x11
	opDrop         opcode = 0x1A
	opSelect       opcode = 0x1B
	opLocalGet     opcode = 0x20
	opLocalSet     opcode = 0x21
	opGlobalSet    opcode = 0x24
	opI64Load      opcode = 0x29
	opI64Store     opcode = 0x37
	opMemorySize   opcode = 0x3F
	opMemoryGrow   opcode = 0x40
	opI32Const     opcode = 0x41
	opI64Const     opcode = 0x42
	opF32Const     opcode = 0x43
	opF64Const     opcode = 0x44
	opI32Add       opcode = 0x6A
	opI32Mul       opcode = 0x6C
	opI32And       opcode = 0x71
	opI32Xor       opcode = 0x73
	opI32Shl       opcode = 0x74
	opI32ShrS      opcode = 0x75
	opI32ShrU      opcode = 0x76
	opI32Rotl      opcode = 0x77
	opI32Rotr      opcode = 0x78
	opI64Add       opcode = 0x7C
	opI64Sub       opcode = 0x7D
	opI64Mul       opcode = 0x7E
	opI64And       opcode = 0x83
	opI64Or        opcode = 0x84
	opI64Xor       opcode = 0x85
	opI64Shl       opcode = 0x86
	opI64ShrS      opcode = 0x87
	opI64ShrU      opcode = 0x88
	opI64Rotl      opcode = 0x89
	opI64Rotr      opcode = 0x8A
)

// immKind describes an opcode's immediate encoding.
type immKind byte

const (
	immNone immKind = iota
	immBlockType
	immU32
	immU32Byte // call_indirect: type index + reserved byte
	immByte    // memory.size/grow: reserved byte
	immMemarg
	immS32
	immS64
	immF32
	immF64
	immBrTable
)

// immOf returns the immediate kind of op, or an error for gaps in the MVP
// opcode space.
func immOf(op opcode) (immKind, error) {
	switch {
	case op == opBlock || op == opLoop || op == opIf:
		return immBlockType, nil
	case op == opBr || op == opBrIf || op == opCall ||
		(op >= opLocalGet && op <= opGlobalSet):
		return immU32, nil
	case op == opCallIndirect:
		return immU32Byte, nil
	case op == opBrTable:
		return immBrTable, nil
	case op >= 0x28 && op <= 0x3E:
		return immMemarg, nil
	case op == opMemorySize || op == opMemoryGrow:
		return immByte, nil
	case op == opI32Const:
		return immS32, nil
	case op == opI64Const:
		return immS64, nil
	case op == opF32Const:
		return immF32, nil
	case op == opF64Const:
		return immF64, nil
	case op <= 0x11 || op == opDrop || op == opSelect || (op >= 0x45 && op <= 0xBF):
		return immNone, nil
	default:
		return immNone, fmt.Errorf("wasm: unknown opcode %#02x", byte(op))
	}
}

// walkBody calls fn for every instruction in a function body (the raw bytes
// after local declarations, including the trailing end). fn receives the
// opcode and the instruction's byte offset.
func walkBody(body []byte, fn func(op opcode, offset int) error) error {
	r := &reader{b: body}
	for r.off < len(r.b) {
		at := r.off
		b, err := r.byte()
		if err != nil {
			return err
		}
		op := opcode(b)
		kind, err := immOf(op)
		if err != nil {
			return err
		}
		switch kind {
		case immNone:
		case immBlockType, immByte:
			if _, err := r.byte(); err != nil {
				return err
			}
		case immU32:
			if _, err := r.u32(); err != nil {
				return err
			}
		case immU32Byte:
			if _, err := r.u32(); err != nil {
				return err
			}
			if _, err := r.byte(); err != nil {
				return err
			}
		case immMemarg:
			if _, err := r.u32(); err != nil {
				return err
			}
			if _, err := r.u32(); err != nil {
				return err
			}
		case immS32, immS64:
			if _, n, err := readS64(r.b[r.off:]); err != nil {
				return err
			} else {
				r.off += n
			}
		case immF32:
			if _, err := r.take(4); err != nil {
				return err
			}
		case immF64:
			if _, err := r.take(8); err != nil {
				return err
			}
		case immBrTable:
			n, err := r.u32()
			if err != nil {
				return err
			}
			for i := uint32(0); i <= n; i++ { // targets plus default
				if _, err := r.u32(); err != nil {
					return err
				}
			}
		}
		if err := fn(op, at); err != nil {
			return err
		}
	}
	return nil
}

// Features summarises the instruction mix of a module — the paper's
// "number of XOR, shift or load operations which we found to be quite
// distinctive" (§3.2).
type Features struct {
	Ops    int // total instructions
	xor    int
	shift  int
	rotate int
	load   int
	store  int
	mul    int
	call   int
	funcs  int // module-defined functions
	Pages  uint32
}

// ExtractFeatures walks all function bodies of m.
func ExtractFeatures(m *Module) (Features, error) {
	f := Features{funcs: len(m.Codes), Pages: m.memoryPages()}
	for _, c := range m.Codes {
		err := walkBody(c.Body, func(op opcode, _ int) error {
			f.Ops++
			switch {
			case op == opI32Xor || op == opI64Xor:
				f.xor++
			case op == opI32Shl || op == opI32ShrS || op == opI32ShrU ||
				op == opI64Shl || op == opI64ShrS || op == opI64ShrU:
				f.shift++
			case op == opI32Rotl || op == opI32Rotr || op == opI64Rotl || op == opI64Rotr:
				f.rotate++
			case op >= 0x28 && op <= 0x35:
				f.load++
			case op >= 0x36 && op <= 0x3E:
				f.store++
			case op == opI32Mul || op == opI64Mul:
				f.mul++
			case op == opCall || op == opCallIndirect:
				f.call++
			}
			return nil
		})
		if err != nil {
			return Features{}, err
		}
	}
	return f, nil
}

// MixRatio returns the fraction of instructions that are XOR/shift/rotate —
// the single most discriminating scalar for hash-function bodies.
func (f Features) MixRatio() float64 {
	if f.Ops == 0 {
		return 0
	}
	return float64(f.xor+f.shift+f.rotate) / float64(f.Ops)
}

// MemoryRatio returns loads+stores per instruction, high for scratchpad
// random walks.
func (f Features) MemoryRatio() float64 {
	if f.Ops == 0 {
		return 0
	}
	return float64(f.load+f.store) / float64(f.Ops)
}
