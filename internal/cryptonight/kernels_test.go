package cryptonight

import (
	"math/rand"
	"slices"
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

// FuzzSumPathsAgree holds the dispatch path to walkGo on one blob and,
// with pair set, holds Sum2 of the blob and its reverse to two Sums on
// both paths.
func FuzzSumPathsAgree(f *testing.F) {
	for i, in := range goldenInputs() {
		f.Add(in, uint8(i), i%2 == 1)
	}
	hs, partners := pathHashers(f), pathHashers(f)
	f.Fuzz(func(t *testing.T, blob []byte, profile uint8, pair bool) {
		h := hs[int(profile)%len(hs)]
		got := h.Sum(blob)
		if pair {
			o := partners[int(profile)%len(hs)]
			other := slices.Clone(blob)
			slices.Reverse(other)
			want := [2][32]byte{got, o.Sum(other)}
			if x, y := h.Sum2(o, blob, other); [2][32]byte{x, y} != want {
				t.Errorf("%s: dispatch Sum2 %x, two Sums %x", h.v.Name, [2][32]byte{x, y}, want)
			}
			forceSoftAES(t)
			if x, y := h.Sum2(o, blob, other); [2][32]byte{x, y} != want {
				t.Errorf("%s: walkGo Sum2 %x, two Sums %x", h.v.Name, [2][32]byte{x, y}, want)
			}
		}
		forceSoftAES(t) // restored when this input's t ends
		if want := h.Sum(blob); got != want {
			t.Errorf("%s: dispatch path %x, walkGo %x", h.v.Name, got, want)
		}
	})
}

// TestSum2MatchesSum holds Sum2 to two Sums on every pathVariants profile,
// through the dispatch and through walkGo: random blobs of unequal
// lengths, the same blob on both sides, and an empty blob.
func TestSum2MatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	hs, partners := pathHashers(t), pathHashers(t)
	type pair struct{ a, b []byte }
	var pairs []pair
	for i := 0; i < 4; i++ {
		a, b := make([]byte, rng.Intn(200)), make([]byte, rng.Intn(200))
		rng.Read(a)
		rng.Read(b)
		pairs = append(pairs, pair{a, b})
	}
	same := goldenInputs()[6]
	pairs = append(pairs, pair{same, same}, pair{nil, same}, pair{same, []byte{}})
	check := func(path string) {
		for i, h := range hs {
			o := partners[i]
			for _, p := range pairs {
				want := [2][32]byte{h.Sum(p.a), o.Sum(p.b)}
				if x, y := h.Sum2(o, p.a, p.b); [2][32]byte{x, y} != want {
					t.Errorf("%s, %s, %d- and %d-byte blobs: Sum2 %x, two Sums %x", path, h.v.Name, len(p.a), len(p.b), [2][32]byte{x, y}, want)
				}
			}
		}
	}
	check("dispatch")
	forceSoftAES(t)
	check("walkGo")
}

// TestSum2RefusesMisuse: a Hasher paired with itself, or with one of
// another variant, is a programming error.
func TestSum2RefusesMisuse(t *testing.T) {
	hs := pathHashers(t)
	for name, o := range map[string]*Hasher{"itself": hs[0], "another variant": hs[2]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sum2 with %s did not panic", name)
				}
			}()
			hs[0].Sum2(o, nil, nil)
		}()
	}
}

// TestSumAllocsBothPaths extends TestSumAllocs' zero-allocation pin to a
// hash that enters every kernel more than once, to walkGo, and to Sum2.
func TestSumAllocsBothPaths(t *testing.T) {
	in := goldenInputs()[6]
	h, o := pathHashers(t)[4], pathHashers(t)[4]
	for _, path := range []string{"sliced", "walkGo"} {
		if path == "walkGo" {
			forceSoftAES(t)
		}
		if n := testing.AllocsPerRun(5, func() { h.Sum(in) }); n != 0 {
			t.Errorf("%s Sum allocates %.1f objects/op, want 0", path, n)
		}
		if n := testing.AllocsPerRun(5, func() { h.Sum2(o, in, in) }); n != 0 {
			t.Errorf("%s Sum2 allocates %.1f objects/op, want 0", path, n)
		}
	}
}
