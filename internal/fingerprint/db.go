package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strings"
	"sync"

	"repro/internal/wasm"
)

// Signature identifies a Wasm assembly: SHA-256 over the module's function
// bodies "combining (in a strict order) and then hashing the contained
// functions" (§3.2). Only code bodies enter the hash, so cosmetic
// differences in names, exports or data segments do not split signatures —
// but any reordering or change of a single function body does.
type Signature [32]byte

// SignatureOf computes the signature of a decoded module.
func SignatureOf(m *wasm.Module) Signature {
	h := sha256.New()
	var lenBuf [8]byte
	for _, c := range m.Codes {
		// Length-prefix each body so (A,BC) never collides with (AB,C).
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(c.Body)))
		h.Write(lenBuf[:])
		h.Write(c.Body)
	}
	var sig Signature
	copy(sig[:], h.Sum(nil))
	return sig
}

// entry is one assembly in the signature database.
type entry struct {
	sig     Signature
	family  string
	version int
	miner   bool
}

// Verdict is the classification result for one captured module.
type Verdict struct {
	Miner    bool
	Family   string
	Known    bool // exact signature hit
	features wasm.Features
}

// DB is the signature database plus the heuristics used when no signature
// matches. It is safe for concurrent lookups.
type DB struct {
	mu      sync.RWMutex
	entries map[Signature]entry
	// backends maps a pool endpoint domain suffix to a family name, used to
	// attribute unknown miners by their Websocket backend.
	backends map[string]string
	// hints maps a function-name fragment to a family; hintList holds the
	// same fragments sorted longest-first (ties lexicographic), the order
	// the attribution scan probes them in. Longest-first means the scan can
	// stop at the first hit per document and prune the whole tail once any
	// match bounds the remaining fragments.
	hints    map[string]string
	hintList []hintEntry
}

// hintEntry is one (fragment, family) pair of the sorted hint scan list.
type hintEntry struct {
	frag   string
	family string
}

// newDB returns an empty database.
func newDB() *DB {
	return &DB{
		entries:  map[Signature]entry{},
		backends: map[string]string{},
		hints:    map[string]string{},
	}
}

// register adds an assembly to the database.
func (db *DB) register(e entry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.entries[e.sig] = e
}

// registerBackend associates a Websocket backend domain with a family.
func (db *DB) registerBackend(domain, family string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.backends[strings.ToLower(domain)] = family
}

// registerHint associates a function-name fragment with a family. The
// first registration for a fragment wins; catalog order thus encodes
// attribution priority for shared symbols (Coinhive and its consent-asking
// Authedmine variant ship the same hash kernel symbol).
func (db *DB) registerHint(fragment, family string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	frag := strings.ToLower(fragment)
	if _, taken := db.hints[frag]; taken {
		return
	}
	db.hints[frag] = family
	// Insert in scan order: longest fragment first, ties lexicographic.
	i := sort.Search(len(db.hintList), func(i int) bool {
		e := db.hintList[i]
		if len(e.frag) != len(frag) {
			return len(e.frag) < len(frag)
		}
		return e.frag >= frag
	})
	db.hintList = append(db.hintList, hintEntry{})
	copy(db.hintList[i+1:], db.hintList[i:])
	db.hintList[i] = hintEntry{frag: frag, family: family}
}

// lookup returns the entry for an exact signature match.
func (db *DB) lookup(sig Signature) (entry, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.entries[sig]
	return e, ok
}

// Heuristic thresholds, chosen to separate hash-function bodies from the
// benign corpus (see TestHeuristicSeparation). A hash kernel's XOR density
// per *instruction* is lower than per *operation* because every ALU op is
// bracketed by local.get/local.set traffic; the thresholds account for that
// ~3.5× dilution.
const (
	minMixRatio  = 0.07  // XOR/shift/rotate fraction of all instructions
	minMemRatio  = 0.025 // loads+stores fraction of all instructions
	minerMinOps  = 500   // total instructions
	minerMinPage = 4     // linear memory pages (scratchpad evidence)
)

// Classify decides whether a module is a miner and attributes a family.
// wsHosts lists the Websocket endpoints the embedding page dialled while
// the module ran (from the browser instrumentation); it may be nil.
func (db *DB) Classify(m *wasm.Module, wsHosts []string) Verdict {
	feats, err := wasm.ExtractFeatures(m)
	if err != nil {
		return Verdict{Family: familyBenign}
	}
	v := Verdict{features: feats}

	if e, ok := db.lookup(SignatureOf(m)); ok {
		v.Known = true
		v.Miner = e.miner
		v.Family = e.family
		if !e.miner {
			v.Family = familyBenign
		}
		return v
	}

	// Heuristic: hash kernels are XOR/shift-dense, touch memory a lot and
	// need a scratchpad-sized linear memory.
	looksMiner := feats.MixRatio() >= minMixRatio &&
		feats.MemoryRatio() >= minMemRatio &&
		feats.Ops >= minerMinOps &&
		feats.Pages >= minerMinPage
	if !looksMiner {
		v.Family = familyBenign
		return v
	}
	v.Miner = true

	// Attribute the family. The Websocket backend is checked first — the
	// paper's strongest distinguishing feature — and function-name hints
	// second. Hint matching picks the longest matching fragment so that a
	// specific symbol beats a generic substring deterministically.
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, host := range wsHosts {
		low := strings.ToLower(host)
		for dom, fam := range db.backends {
			if low == dom || strings.HasSuffix(low, "."+dom) {
				v.Family = fam
				return v
			}
		}
	}
	// Each name is lowercased exactly once and scanned against the
	// longest-first hint list: fragments no longer than the best match so
	// far cannot improve it (prune the tail), fragments longer than the
	// name cannot occur in it (skip), and the first hit per name is by
	// construction its longest, so the scan stops there.
	bestLen := 0
	for _, name := range m.Names {
		low := strings.ToLower(name)
		for _, he := range db.hintList {
			if len(he.frag) <= bestLen {
				break
			}
			if len(he.frag) > len(low) {
				continue
			}
			if strings.Contains(low, he.frag) {
				bestLen = len(he.frag)
				v.Family = he.family
				break
			}
		}
	}
	if bestLen > 0 {
		return v
	}
	// Unattributed miners are labelled by their transport, as in Table 1.
	v.Family = FamilyUnknownWSS
	return v
}

// ReferenceDB builds the full ~160-assembly database from the catalog,
// including backend and name-hint tables. The Fig. 2/Table 1 experiments
// use this as "our Miner Wasm signature database".
func ReferenceDB() *DB {
	db := newDB()
	for _, spec := range Catalog() {
		for v := 0; v < spec.Versions; v++ {
			db.register(entry{
				sig:     SignatureOf(moduleFor(spec, v)),
				family:  spec.Name,
				version: v,
				miner:   spec.miner,
			})
		}
		if spec.Backend != "" {
			db.registerBackend(spec.Backend, spec.Name)
		}
		if spec.nameHint != "" && spec.miner {
			db.registerHint(spec.nameHint, spec.Name)
		}
	}
	return db
}

// PartialDB builds a database that knows only every skipEvery-th version of
// each family. The Table 2-style ablation uses it to measure how much the
// heuristic layer recovers when the signature corpus is incomplete.
func PartialDB(skipEvery int) *DB {
	db := newDB()
	for _, spec := range Catalog() {
		for v := 0; v < spec.Versions; v++ {
			if skipEvery > 1 && v%skipEvery != 0 {
				continue
			}
			db.register(entry{
				sig:     SignatureOf(moduleFor(spec, v)),
				family:  spec.Name,
				version: v,
				miner:   spec.miner,
			})
		}
		if spec.Backend != "" {
			db.registerBackend(spec.Backend, spec.Name)
		}
		if spec.nameHint != "" && spec.miner {
			db.registerHint(spec.nameHint, spec.Name)
		}
	}
	return db
}
