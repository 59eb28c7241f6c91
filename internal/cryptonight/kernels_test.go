package cryptonight

import (
	"math/rand"
	"testing"
)

// pathVariants are the profiles on which the kernels and walkGo must agree:
// the two real ones the simulations run, a scratchpad of a single 128-byte
// chunk walked once, an odd iteration count, and a profile whose pad takes
// two explode/implode slices and whose iteration count is not a multiple of
// the main-loop slice — so state carried between kernel calls is compared
// against a path that has no slices at all.
var pathVariants = []Variant{
	Test,
	Lite,
	{Name: "one-chunk", ScratchpadSize: 128, Iterations: 1},
	{Name: "odd", ScratchpadSize: 1 << 12, Iterations: 1001},
	{Name: "cross-slice", ScratchpadSize: 1 << 17, Iterations: 1<<13 + 5},
}

func pathHashers(t testing.TB) []*Hasher {
	hs := make([]*Hasher, len(pathVariants))
	for i, v := range pathVariants {
		h, err := NewHasher(v)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return hs
}

// TestSumPathsAgree hashes random blobs on every pathVariants profile
// through walk's dispatch (the AES-NI kernels where the CPU has them) and
// then, with the dispatch forced off, through walkGo.
func TestSumPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	type run struct {
		h    *Hasher
		blob []byte
		got  [32]byte
	}
	var runs []run
	for _, h := range pathHashers(t) {
		for i := 0; i < 6; i++ {
			blob := make([]byte, rng.Intn(200))
			rng.Read(blob)
			runs = append(runs, run{h, blob, h.Sum(blob)})
		}
	}
	forceSoftAES(t)
	for _, r := range runs {
		if want := r.h.Sum(r.blob); r.got != want {
			t.Errorf("%s, %d-byte blob: dispatch path %x, walkGo %x", r.h.v.Name, len(r.blob), r.got, want)
		}
	}
}

func FuzzSumPathsAgree(f *testing.F) {
	for i, in := range goldenInputs() {
		f.Add(in, uint8(i))
	}
	hs := pathHashers(f)
	f.Fuzz(func(t *testing.T, blob []byte, profile uint8) {
		h := hs[int(profile)%len(hs)]
		got := h.Sum(blob)
		forceSoftAES(t) // restored when this input's t ends
		if want := h.Sum(blob); got != want {
			t.Errorf("%s: dispatch path %x, walkGo %x", h.v.Name, got, want)
		}
	})
}

// TestSumAllocsBothPaths extends TestSumAllocs' zero-allocation pin to a
// hash that enters every kernel more than once, and to walkGo.
func TestSumAllocsBothPaths(t *testing.T) {
	in := goldenInputs()[6]
	h := pathHashers(t)[4]
	if n := testing.AllocsPerRun(5, func() { h.Sum(in) }); n != 0 {
		t.Errorf("sliced Sum allocates %.1f objects/op, want 0", n)
	}
	forceSoftAES(t)
	if n := testing.AllocsPerRun(5, func() { h.Sum(in) }); n != 0 {
		t.Errorf("walkGo Sum allocates %.1f objects/op, want 0", n)
	}
}
