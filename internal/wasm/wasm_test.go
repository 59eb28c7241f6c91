package wasm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleModule() *Module {
	body := newBody().
		u32(opLocalGet, 0).
		u32(opLocalGet, 1).
		op(opI32Xor).
		finish()
	return &Module{
		types: []funcType{
			{params: []valType{i32, i32}, results: []valType{i32}},
			{params: nil, results: nil},
		},
		imports: []Import{
			{Module: "env", Name: "abort", Kind: ExtFunc, Type: 1},
			{Module: "env", Name: "memory", Kind: extMemory, mem: limits{min: 32, max: 64, hasMax: true}},
		},
		functions: []uint32{0},
		memories:  []limits{{min: 33}},
		globals: []global{
			{typ: i32, mutable: true, init: newBody().i32Const(7).finish()},
		},
		Exports: []Export{{Name: "cryptonight_hash", Kind: ExtFunc, Index: 1}},
		Codes: []Code{
			{locals: []localDecl{{count: 2, typ: i64}}, Body: body},
		},
		data: []dataSegment{
			{memIndex: 0, offset: newBody().i32Const(16).finish(), init: []byte("sbox")},
		},
		Names: map[uint32]string{1: "cryptonight_hash"},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleModule()
	bin := Encode(m)
	if !IsWasm(bin) {
		t.Fatal("encoded module fails IsWasm")
	}
	got, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.types) != 2 || len(got.types[0].params) != 2 || got.types[0].results[0] != i32 {
		t.Errorf("types: %+v", got.types)
	}
	if len(got.imports) != 2 || got.imports[0].Name != "abort" || got.imports[1].mem.max != 64 {
		t.Errorf("imports: %+v", got.imports)
	}
	if len(got.functions) != 1 || got.functions[0] != 0 {
		t.Errorf("functions: %+v", got.functions)
	}
	if got.memoryPages() != 33 {
		t.Errorf("pages = %d, want 33", got.memoryPages())
	}
	if len(got.globals) != 1 || !got.globals[0].mutable {
		t.Errorf("globals: %+v", got.globals)
	}
	if len(got.Exports) != 1 || got.Exports[0].Name != "cryptonight_hash" {
		t.Errorf("exports: %+v", got.Exports)
	}
	if len(got.Codes) != 1 || !bytes.Equal(got.Codes[0].Body, m.Codes[0].Body) {
		t.Errorf("code bodies differ")
	}
	if got.Codes[0].locals[0] != (localDecl{count: 2, typ: i64}) {
		t.Errorf("locals: %+v", got.Codes[0].locals)
	}
	if len(got.data) != 1 || string(got.data[0].init) != "sbox" {
		t.Errorf("data: %+v", got.data)
	}
	if got.Names[1] != "cryptonight_hash" {
		t.Errorf("names: %+v", got.Names)
	}
	// Re-encoding a decoded module must be byte-identical (stable fingerprints).
	if !bytes.Equal(Encode(got), bin) {
		t.Error("re-encode differs from original")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not wasm at all")); err != errBadMagic {
		t.Errorf("bad magic: err = %v", err)
	}
	// Valid magic, truncated section.
	bin := []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00, secType, 50}
	if _, err := Decode(bin); err == nil {
		t.Error("truncated section accepted")
	}
}

func TestIsWasm(t *testing.T) {
	if IsWasm([]byte("\x00asm")) {
		t.Error("short buffer accepted")
	}
	if !IsWasm([]byte("\x00asm\x01\x00\x00\x00rest")) {
		t.Error("valid prefix rejected")
	}
	if IsWasm([]byte("\x00asm\x02\x00\x00\x00")) {
		t.Error("wrong version accepted")
	}
}

func TestLEBRoundTrip(t *testing.T) {
	g := func(v int64) bool {
		buf := appendS64(nil, v)
		got, n, err := readS64(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestLEBAcceptsNonMinimal(t *testing.T) {
	// 0x80 0x00 is a padded zero — legal in Wasm, illegal in consensus varint.
	v, n, err := readU32([]byte{0x80, 0x00})
	if err != nil || v != 0 || n != 2 {
		t.Errorf("padded zero: (%d,%d,%v)", v, n, err)
	}
}

func TestWalkBodyCountsAndOffsets(t *testing.T) {
	body := newBody().
		i32Const(1024).
		mem(opI64Load, 3, 16).
		u32(opLocalGet, 0).
		op(opI64Xor).
		u32(opLocalSet, 1).
		finish()
	var ops []opcode
	var offsets []int
	err := walkBody(body, func(op opcode, off int) error {
		ops = append(ops, op)
		offsets = append(offsets, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []opcode{opI32Const, opI64Load, opLocalGet, opI64Xor, opLocalSet, opEnd}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
	if offsets[0] != 0 {
		t.Error("first offset not 0")
	}
}

func TestWalkBodyBrTable(t *testing.T) {
	b := newBody()
	b.block(opBlock).block(opBlock)
	b.i32Const(1)
	// br_table with 2 targets + default.
	b.buf = append(b.buf, byte(opBrTable))
	b.buf = appendU32(b.buf, 2)
	b.buf = appendU32(b.buf, 0)
	b.buf = appendU32(b.buf, 1)
	b.buf = appendU32(b.buf, 0)
	b.end().end()
	body := b.finish()
	n := 0
	if err := walkBody(body, func(op opcode, _ int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 7 { // block block i32.const br_table end end end
		t.Errorf("walked %d instructions, want 7", n)
	}
}

func TestWalkBodyRejectsUnknownOpcode(t *testing.T) {
	if err := walkBody([]byte{0xFE, 0x0B}, func(opcode, int) error { return nil }); err == nil {
		t.Error("unknown opcode accepted")
	}
}

func TestExtractFeaturesOnSynthesizedMiner(t *testing.T) {
	miner := Synthesize(SynthSpec{
		Seed: 42, Funcs: 8, BodyOps: 400,
		XorWeight: 0.45, MemWeight: 0.30, Pages: 36,
		Exports: []string{"cn_hash"},
	})
	benign := Synthesize(SynthSpec{
		Seed: 43, Funcs: 8, BodyOps: 400,
		XorWeight: 0.02, MemWeight: 0.10, Pages: 2,
		Exports: []string{"render"},
	})
	fm, err := ExtractFeatures(miner)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ExtractFeatures(benign)
	if err != nil {
		t.Fatal(err)
	}
	if fm.MixRatio() <= fb.MixRatio() {
		t.Errorf("miner mix ratio %.3f not above benign %.3f", fm.MixRatio(), fb.MixRatio())
	}
	if fm.Pages != 36 || fb.Pages != 2 {
		t.Errorf("pages: %d/%d", fm.Pages, fb.Pages)
	}
	if fm.funcs != 8 {
		t.Errorf("funcs = %d", fm.funcs)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec := SynthSpec{Seed: 7, Funcs: 3, BodyOps: 100, XorWeight: 0.4, MemWeight: 0.2, Pages: 33}
	a := Encode(Synthesize(spec))
	b := Encode(Synthesize(spec))
	if !bytes.Equal(a, b) {
		t.Error("same spec produced different binaries")
	}
	spec.Seed = 8
	c := Encode(Synthesize(spec))
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical binaries")
	}
}

func TestSynthesizedModulesDecode(t *testing.T) {
	spec := SynthSpec{
		Seed: 99, Funcs: 16, BodyOps: 1000, XorWeight: 0.5, MemWeight: 0.3, Pages: 40,
		Imports: []Import{{Module: "env", Name: "ws_send", Kind: ExtFunc, Type: 0}},
		Names:   map[uint32]string{1: "cn_slow_hash"},
		Exports: []string{"hash", "init"},
	}
	bin := Encode(Synthesize(spec))
	m, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Codes) != 16 {
		t.Errorf("codes = %d", len(m.Codes))
	}
	if m.Names[1] != "cn_slow_hash" {
		t.Error("name section lost")
	}
	if _, err := ExtractFeatures(m); err != nil {
		t.Errorf("features over synthesized module: %v", err)
	}
}

func BenchmarkDecodeSynthesized(b *testing.B) {
	bin := Encode(Synthesize(SynthSpec{Seed: 5, Funcs: 20, BodyOps: 500, XorWeight: 0.4, MemWeight: 0.3, Pages: 33}))
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bin); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractFeatures(b *testing.B) {
	m := Synthesize(SynthSpec{Seed: 5, Funcs: 20, BodyOps: 500, XorWeight: 0.4, MemWeight: 0.3, Pages: 33})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractFeatures(m); err != nil {
			b.Fatal(err)
		}
	}
}
