package fingerprint

import (
	"fmt"
	"testing"

	"repro/internal/wasm"
)

func TestSignatureStableAcrossCosmeticChanges(t *testing.T) {
	spec, _ := SpecByName(FamilyCoinhive)
	m1 := moduleFor(spec, 0)
	m2 := moduleFor(spec, 0)
	if SignatureOf(m1) != SignatureOf(m2) {
		t.Fatal("same assembly, different signature")
	}
	// Renaming functions or exports must not change the signature: only
	// function bodies are hashed.
	m2.Names = map[uint32]string{3: "totally_not_a_miner"}
	m2.Exports = []wasm.Export{{Name: "decoy", Kind: wasm.ExtFunc, Index: 1}}
	if SignatureOf(m1) != SignatureOf(m2) {
		t.Error("cosmetic rename changed the signature")
	}
}

func TestSignatureSensitiveToBodies(t *testing.T) {
	spec, _ := SpecByName(FamilyCoinhive)
	m1 := moduleFor(spec, 0)
	m2 := moduleFor(spec, 0)
	// Flip one instruction byte in one body.
	m2.Codes[2].Body[10] ^= 0x01
	if SignatureOf(m1) == SignatureOf(m2) {
		t.Error("body mutation kept the signature")
	}
	// Reordering functions must change the signature (strict order).
	m3 := moduleFor(spec, 0)
	m3.Codes[0], m3.Codes[1] = m3.Codes[1], m3.Codes[0]
	if SignatureOf(m1) == SignatureOf(m3) {
		t.Error("function reorder kept the signature")
	}
}

func TestSignatureLengthPrefixPreventsSplicing(t *testing.T) {
	// Two modules whose concatenated bodies are equal but split differently
	// must not collide.
	a := &wasm.Module{Codes: []wasm.Code{{Body: []byte{1, 2}}, {Body: []byte{3}}}}
	b := &wasm.Module{Codes: []wasm.Code{{Body: []byte{1}}, {Body: []byte{2, 3}}}}
	if SignatureOf(a) == SignatureOf(b) {
		t.Error("splice collision")
	}
}

func TestCatalogSize(t *testing.T) {
	total := 0
	miners := 0
	for _, f := range Catalog() {
		total += f.Versions
		if f.miner {
			miners += f.Versions
		}
	}
	// The paper: "a database of ~160 different assemblies"; most are miners.
	if total < 150 || total > 175 {
		t.Errorf("catalog holds %d assemblies, want ~160", total)
	}
	if frac := float64(miners) / float64(total); frac < 0.85 {
		t.Errorf("miner fraction %.2f too low (paper: ~96%% of Wasm are miners)", frac)
	}
}

func TestReferenceDBCoversCatalog(t *testing.T) {
	db := ReferenceDB()
	want := 0
	for _, f := range Catalog() {
		want += f.Versions
	}
	if len(db.entries) != want {
		t.Errorf("db has %d entries, want %d", len(db.entries), want)
	}
	// Every catalog module must hit exactly, with the right family.
	for _, spec := range Catalog() {
		for v := 0; v < spec.Versions; v++ {
			e, ok := db.lookup(SignatureOf(moduleFor(spec, v)))
			if !ok {
				t.Fatalf("%s v%d not found", spec.Name, v)
			}
			if e.family != spec.Name || e.miner != spec.miner {
				t.Errorf("%s v%d: entry %+v", spec.Name, v, e)
			}
		}
	}
}

func TestClassifyExactHit(t *testing.T) {
	db := ReferenceDB()
	spec, _ := SpecByName(FamilyCryptoloot)
	v := db.Classify(moduleFor(spec, 3), nil)
	if !v.Known || !v.Miner || v.Family != FamilyCryptoloot {
		t.Errorf("verdict = %+v", v)
	}
}

func TestClassifyBenignExactHit(t *testing.T) {
	db := ReferenceDB()
	spec, _ := SpecByName("image-codec")
	v := db.Classify(moduleFor(spec, 0), nil)
	if v.Miner || v.Family != familyBenign {
		t.Errorf("verdict = %+v", v)
	}
}

func TestClassifyUnknownMinerByNameHint(t *testing.T) {
	db := ReferenceDB()
	spec, _ := SpecByName(FamilyCoinhive)
	m := moduleFor(spec, 0)
	m.Codes[0].Body[5] ^= 0xFF // break the signature
	m.Names = map[uint32]string{1: "__Z16cryptonight_hashPKc"}
	v := db.Classify(m, nil)
	if v.Known {
		t.Error("mutated module matched exactly")
	}
	if !v.Miner || v.Family != FamilyCoinhive {
		t.Errorf("verdict = %+v, want heuristic coinhive", v)
	}
}

func TestClassifyUnknownMinerByBackend(t *testing.T) {
	db := ReferenceDB()
	spec, _ := SpecByName(FamilySkencituer) // no name hint
	m := moduleFor(spec, 0)
	m.Codes[0].Body[5] ^= 0xFF
	m.Names = nil
	v := db.Classify(m, []string{"ws005.skencituer.com"})
	if !v.Miner || v.Family != FamilySkencituer {
		t.Errorf("verdict = %+v, want backend-attributed skencituer", v)
	}
}

func TestClassifyUnknownMinerFallsBackToUnknownWSS(t *testing.T) {
	db := ReferenceDB()
	spec, _ := SpecByName(FamilySkencituer)
	m := moduleFor(spec, 0)
	m.Codes[0].Body[5] ^= 0xFF
	m.Names = nil
	v := db.Classify(m, []string{"ws.never-seen-pool.io"})
	if !v.Miner || v.Family != FamilyUnknownWSS {
		t.Errorf("verdict = %+v, want UnknownWSS", v)
	}
}

func TestHeuristicSeparation(t *testing.T) {
	// With an *empty* signature DB, the pure heuristic must still separate
	// every miner family from every benign family in the catalog.
	db := newDB()
	for _, spec := range Catalog() {
		for v := 0; v < spec.Versions; v++ {
			verdict := db.Classify(moduleFor(spec, v), nil)
			if verdict.Miner != spec.miner {
				t.Errorf("%s v%d: heuristic says miner=%v, want %v (mix=%.3f mem=%.3f ops=%d pages=%d)",
					spec.Name, v, verdict.Miner, spec.miner,
					verdict.features.MixRatio(), verdict.features.MemoryRatio(),
					verdict.features.Ops, verdict.features.Pages)
			}
		}
	}
}

func TestPartialDBStillClassifiesViaHeuristics(t *testing.T) {
	db := PartialDB(4) // knows every 4th version only
	spec, _ := SpecByName(FamilyCoinhive)
	known, heuristic := 0, 0
	for v := 0; v < spec.Versions; v++ {
		verdict := db.Classify(moduleFor(spec, v), []string{"ws1.coinhive.com"})
		if !verdict.Miner {
			t.Fatalf("v%d not detected at all", v)
		}
		if verdict.Known {
			known++
		} else {
			heuristic++
		}
		if verdict.Family != FamilyCoinhive {
			t.Errorf("v%d attributed to %s", v, verdict.Family)
		}
	}
	if known == 0 || heuristic == 0 {
		t.Errorf("expected a mix of exact and heuristic hits, got %d/%d", known, heuristic)
	}
}

func BenchmarkSignatureOf(b *testing.B) {
	spec, _ := SpecByName(FamilyCoinhive)
	m := moduleFor(spec, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SignatureOf(m)
	}
}

func BenchmarkClassifyExact(b *testing.B) {
	db := ReferenceDB()
	spec, _ := SpecByName(FamilyCoinhive)
	m := moduleFor(spec, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Classify(m, nil)
	}
}

func TestHintScanLongestFragmentWins(t *testing.T) {
	db := newDB()
	db.registerHint("cn_hash", "short-family")
	db.registerHint("cryptonight_hash", "long-family")
	spec, _ := SpecByName(FamilyCoinhive)
	m := moduleFor(spec, 0)
	m.Codes[0].Body[5] ^= 0xFF // break the signature: force the heuristic path
	// The name contains both fragments; the longer one must win.
	m.Names = map[uint32]string{1: "__Z16cryptonight_hashPKc"}
	if v := db.Classify(m, nil); !v.Miner || v.Family != "long-family" {
		t.Errorf("verdict = %+v, want long-family via longest hint", v)
	}
}

func TestHintScanEqualLengthTieIsDeterministic(t *testing.T) {
	// Equal-length fragments are probed in lexicographic order, so ties
	// resolve the same way on every run (the map-iteration scan they
	// replace picked a random winner).
	for trial := 0; trial < 8; trial++ {
		db := newDB()
		db.registerHint("zzhash", "family-z")
		db.registerHint("aahash", "family-a")
		spec, _ := SpecByName(FamilyCoinhive)
		m := moduleFor(spec, 0)
		m.Codes[0].Body[5] ^= 0xFF
		m.Names = map[uint32]string{1: "mix_zzhash_aahash"}
		if v := db.Classify(m, nil); v.Family != "family-a" {
			t.Fatalf("trial %d: tie resolved to %q, want family-a", trial, v.Family)
		}
	}
}

// BenchmarkClassifyHintAttribution measures the heuristic hint scan with a
// realistically padded fragment table: one catalog hint matches, 200
// synthetic shorter fragments must not be probed once the match bounds
// the scan.
func BenchmarkClassifyHintAttribution(b *testing.B) {
	db := ReferenceDB()
	for i := 0; i < 200; i++ {
		db.registerHint(fmt.Sprintf("sfrag%03d", i), "synthetic")
	}
	spec, _ := SpecByName(FamilyCoinhive)
	m := moduleFor(spec, 0)
	m.Codes[0].Body[5] ^= 0xFF
	m.Names = map[uint32]string{
		1: "__Z16cryptonight_hashPKc",
		2: "memcpy", 3: "stackAlloc", 4: "dynCall_viiii",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Classify(m, nil)
	}
}
