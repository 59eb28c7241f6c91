// Package fingerprint implements the paper's WebAssembly fingerprinting
// method (§3.2): a database of signatures built by hashing a module's
// function bodies in strict order with SHA-256, complemented by feature
// heuristics (XOR/shift/load counts, function-name hints, Websocket
// backends) that classify assemblies the database has never seen.
package fingerprint

import (
	"fmt"

	"repro/internal/wasm"
)

// Family names follow the labels the paper reports in Table 1. The special
// classes UnknownWSS and Benign are produced by the classifier, not by the
// catalog.
const (
	FamilyCoinhive    = "coinhive"
	FamilyAuthedmine  = "authedmine"
	FamilyCryptoloot  = "cryptoloot"
	FamilySkencituer  = "skencituer"
	FamilyNotgiven688 = "notgiven688"
	FamilyWebStatiBid = "web.stati.bid"
	FamilyFreecontent = "freecontent.date"
	FamilyWpMonero    = "wp-monero-miner"
	FamilyDeepMiner   = "deepminer"
	familyJSMiner     = "jsminer"
	FamilyCoinImp     = "coinimp"
	FamilyMonerise    = "monerise"
	familyWebmine     = "webmine.cz"
	FamilyUnknownWSS  = "UnknownWSS"
	familyBenign      = "benign"
)

// FamilySpec describes how a miner (or benign) family's assemblies are
// synthesised: instruction-mix weights, scratchpad size, exported symbols
// and the Websocket backend the embedding script dials.
type FamilySpec struct {
	Name     string
	miner    bool
	Versions int    // distinct assemblies observed for this family
	Backend  string // characteristic pool endpoint domain ("" if none)
	// nameHint is a function name present in some versions' name sections
	// ("function name hinting at the hash function itself", §3.2).
	nameHint  string
	baseSeed  uint64
	xorWeight float64
	memWeight float64
	pages     uint32
	funcs     int
	bodyOps   int
}

// Catalog returns the reference corpus: ~160 distinct assemblies across
// miner families dominated by Coinhive, mirroring the database the authors
// assembled by manual inspection, plus benign Wasm families (games, codecs,
// math kernels) that a naive "all Wasm is mining" rule would misclassify.
func Catalog() []FamilySpec {
	return []FamilySpec{
		{Name: FamilyCoinhive, miner: true, Versions: 34, Backend: "coinhive.com",
			nameHint: "cryptonight_hash", baseSeed: 0xC01, xorWeight: 0.44, memWeight: 0.28, pages: 36, funcs: 12, bodyOps: 600},
		{Name: FamilyAuthedmine, miner: true, Versions: 8, Backend: "authedmine.com",
			nameHint: "cryptonight_hash", baseSeed: 0xA07, xorWeight: 0.44, memWeight: 0.28, pages: 36, funcs: 12, bodyOps: 600},
		{Name: FamilyCryptoloot, miner: true, Versions: 22, Backend: "crypto-loot.com",
			nameHint: "cn_slow_hash", baseSeed: 0xC10, xorWeight: 0.41, memWeight: 0.30, pages: 34, funcs: 10, bodyOps: 550},
		{Name: FamilySkencituer, miner: true, Versions: 9, Backend: "skencituer.com",
			nameHint: "", baseSeed: 0x5CE, xorWeight: 0.39, memWeight: 0.33, pages: 33, funcs: 9, bodyOps: 500},
		{Name: FamilyNotgiven688, miner: true, Versions: 9, Backend: "notgiven688.host",
			nameHint: "", baseSeed: 0x688, xorWeight: 0.37, memWeight: 0.31, pages: 33, funcs: 8, bodyOps: 450},
		{Name: FamilyWebStatiBid, miner: true, Versions: 11, Backend: "web.stati.bid",
			nameHint: "cn_hash", baseSeed: 0xB1D, xorWeight: 0.42, memWeight: 0.27, pages: 34, funcs: 11, bodyOps: 520},
		{Name: FamilyFreecontent, miner: true, Versions: 11, Backend: "freecontent.date",
			nameHint: "", baseSeed: 0xFCD, xorWeight: 0.40, memWeight: 0.29, pages: 34, funcs: 10, bodyOps: 520},
		{Name: FamilyWpMonero, miner: true, Versions: 8, Backend: "wp-monero-miner.com",
			nameHint: "cryptonight", baseSeed: 0x3B0, xorWeight: 0.43, memWeight: 0.26, pages: 36, funcs: 12, bodyOps: 580},
		{Name: FamilyDeepMiner, miner: true, Versions: 7, Backend: "deepminer.net",
			nameHint: "cryptonight", baseSeed: 0xDEE, xorWeight: 0.42, memWeight: 0.28, pages: 35, funcs: 10, bodyOps: 540},
		{Name: familyJSMiner, miner: true, Versions: 4, Backend: "jsminer.example",
			nameHint: "sha256_block", baseSeed: 0x751, xorWeight: 0.48, memWeight: 0.12, pages: 4, funcs: 6, bodyOps: 400},
		{Name: FamilyCoinImp, miner: true, Versions: 8, Backend: "coinimp.com",
			nameHint: "cn_slow_hash", baseSeed: 0xC1A, xorWeight: 0.41, memWeight: 0.29, pages: 34, funcs: 10, bodyOps: 520},
		{Name: FamilyMonerise, miner: true, Versions: 6, Backend: "monerise.com",
			nameHint: "", baseSeed: 0x40E, xorWeight: 0.40, memWeight: 0.30, pages: 34, funcs: 9, bodyOps: 500},
		{Name: familyWebmine, miner: true, Versions: 6, Backend: "webmine.cz",
			nameHint: "cryptonight", baseSeed: 0x3BC, xorWeight: 0.41, memWeight: 0.28, pages: 34, funcs: 9, bodyOps: 500},
		// Benign Wasm: the ~4% of captured assemblies that are not miners.
		{Name: "game-engine", miner: false, Versions: 6, baseSeed: 0x6A5, xorWeight: 0.03, memWeight: 0.22, pages: 16, funcs: 14, bodyOps: 700},
		{Name: "image-codec", miner: false, Versions: 5, baseSeed: 0x1C0, xorWeight: 0.06, memWeight: 0.35, pages: 8, funcs: 10, bodyOps: 600},
		{Name: "math-kernel", miner: false, Versions: 4, baseSeed: 0x3A7, xorWeight: 0.02, memWeight: 0.12, pages: 2, funcs: 8, bodyOps: 500},
		{Name: "crypto-lib", miner: false, Versions: 4, baseSeed: 0xC4B, xorWeight: 0.30, memWeight: 0.08, pages: 2, funcs: 6, bodyOps: 450},
	}
}

// SpecByName returns the catalog entry for a family name.
func SpecByName(name string) (FamilySpec, bool) {
	for _, f := range Catalog() {
		if f.Name == name {
			return f, true
		}
	}
	return FamilySpec{}, false
}

// moduleFor synthesises version v of the given family. The same
// (family, version) pair always yields byte-identical binaries, which is
// what lets a signature database built from one crawl recognise the same
// assembly on thousands of other sites.
func moduleFor(spec FamilySpec, version int) *wasm.Module {
	if version < 0 || version >= spec.Versions {
		panic(fmt.Sprintf("fingerprint: family %s has no version %d", spec.Name, version))
	}
	names := map[uint32]string{}
	if spec.nameHint != "" && version%2 == 0 { // only some versions keep names
		names[1] = spec.nameHint
	}
	var imports []wasm.Import
	if spec.miner {
		imports = append(imports,
			wasm.Import{Module: "env", Name: "_emscripten_memcpy_big", Kind: wasm.ExtFunc, Type: 0})
	}
	exports := []string{"_" + exportName(spec), "_malloc"}
	return wasm.Synthesize(wasm.SynthSpec{
		Seed:      spec.baseSeed*1_000_003 + uint64(version)*7919,
		Funcs:     spec.funcs,
		BodyOps:   spec.bodyOps + version*13, // versions differ structurally
		XorWeight: spec.xorWeight,
		MemWeight: spec.memWeight,
		Pages:     spec.pages,
		Names:     names,
		Imports:   imports,
		Exports:   exports,
	})
}

func exportName(spec FamilySpec) string {
	if spec.nameHint != "" {
		return spec.nameHint
	}
	if spec.miner {
		return "hash"
	}
	return "run"
}

// BinaryFor is moduleFor followed by encoding.
func BinaryFor(spec FamilySpec, version int) []byte {
	return wasm.Encode(moduleFor(spec, version))
}
