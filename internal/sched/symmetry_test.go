package sched

import (
	"hash/maphash"
	"testing"
)

func TestCanonicalizerGroupSize(t *testing.T) {
	cases := []struct {
		name string
		spec SymmetrySpec
		size int
	}{
		{"identity", SymmetrySpec{N: 3}, 1},
		{"singleton class", SymmetrySpec{N: 3, Classes: [][]int{{1}}}, 1},
		{"pair", SymmetrySpec{N: 3, Classes: [][]int{{0, 2}}}, 2},
		{"full S3", SymmetrySpec{N: 3, Classes: [][]int{{0, 1, 2}}}, 6},
		{"product S2xS2", SymmetrySpec{N: 4, Classes: [][]int{{0, 1}, {2, 3}}}, 4},
		{"full S8", SymmetrySpec{N: 8, Classes: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}}, 40320},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cz, err := NewCanonicalizer(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if cz.Size() != c.size {
				t.Errorf("group size %d, want %d", cz.Size(), c.size)
			}
			if cz.Capped() {
				t.Error("unexpectedly capped")
			}
			// Group elements must be pairwise-distinct permutations, and the
			// identity must be among them.
			seen := map[string]bool{}
			id := false
			for _, e := range cz.elems {
				key := ""
				isID := true
				for pid := 0; pid < c.spec.N; pid++ {
					key += string(rune('a' + e.Pid(pid)))
					if e.Pid(pid) != pid {
						isID = false
					}
				}
				if seen[key] {
					t.Errorf("duplicate group element %s", key)
				}
				seen[key] = true
				id = id || isID
			}
			if !id {
				t.Error("identity element missing from group")
			}
		})
	}
}

func TestCanonicalizerCapsOversizedGroups(t *testing.T) {
	cl := make([]int, 9) // 9! > MaxSymmetryGroup
	for i := range cl {
		cl[i] = i
	}
	cz, err := NewCanonicalizer(SymmetrySpec{N: 9, Classes: [][]int{cl}})
	if err != nil {
		t.Fatal(err)
	}
	if !cz.Capped() || cz.Size() != 1 {
		t.Fatalf("capped=%v size=%d, want degenerate identity group", cz.Capped(), cz.Size())
	}
	if !cz.Trivial() {
		t.Error("capped role-free group should be Trivial")
	}
}

func TestCanonicalizerRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec SymmetrySpec
	}{
		{"zero processes", SymmetrySpec{N: 0}},
		{"pid out of range", SymmetrySpec{N: 2, Classes: [][]int{{0, 2}}}},
		{"negative pid", SymmetrySpec{N: 2, Classes: [][]int{{-1, 0}}}},
		{"overlapping classes", SymmetrySpec{N: 3, Classes: [][]int{{0, 1}, {1, 2}}}},
		{"pid twice in one class", SymmetrySpec{N: 3, Classes: [][]int{{1, 1}}}},
		{"owned count mismatch", SymmetrySpec{
			N: 2, Classes: [][]int{{0, 1}}, Owned: [][]int{{0}, {}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewCanonicalizer(c.spec); err == nil {
				t.Errorf("NewCanonicalizer(%+v) accepted a malformed spec", c.spec)
			}
		})
	}
}

// TestCanonMaps pins the lookup-table semantics on a concrete non-identity
// element: with pids {0,1} swapped and pid i owning component i, the swap
// must carry the owned components along (rule: own[pid][g] hashes at position
// own[π(pid)][g]).
func TestCanonMaps(t *testing.T) {
	cz, err := NewCanonicalizer(SymmetrySpec{
		N:       3,
		Classes: [][]int{{0, 1}},
		Owned:   [][]int{{0}, {1}, {2}},
		Roles:   map[any]int{"in0": 0, "in1": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var swap *Canon
	for _, e := range cz.elems {
		if e.Pid(0) == 1 {
			swap = e
		}
	}
	if swap == nil {
		t.Fatal("swap element missing")
	}
	if swap.Pid(1) != 0 || swap.Pid(2) != 2 {
		t.Errorf("Pid: got %d %d, want 0 2", swap.Pid(1), swap.Pid(2))
	}
	// slotSrc is the inverse: canonical slot 0 holds pid 1's state.
	if swap.SlotSrc(0) != 1 || swap.SlotSrc(1) != 0 || swap.SlotSrc(2) != 2 {
		t.Errorf("SlotSrc: got %d %d %d, want 1 0 2", swap.SlotSrc(0), swap.SlotSrc(1), swap.SlotSrc(2))
	}
	// Pid 0 owns comp 0 and lands in slot 1, which owns comp 1: position 1
	// sources comp 0, and an embedded index 0 is rewritten to 1.
	if swap.CompSrc(1) != 0 || swap.CompDst(0) != 1 {
		t.Errorf("comp maps: CompSrc(1)=%d CompDst(0)=%d, want 0 1", swap.CompSrc(1), swap.CompDst(0))
	}
	if swap.CompSrc(2) != 2 || swap.CompDst(2) != 2 {
		t.Error("unowned component 2 must map to itself")
	}
	// Roles rename through π: pid 0's input now plays role π(0)=1.
	if r, ok := swap.Role("in0"); !ok || r != 1 {
		t.Errorf("Role(in0) = %d,%v, want 1,true", r, ok)
	}
	if _, ok := swap.Role("other"); ok {
		t.Error("undeclared value must not resolve to a role")
	}
	// Out-of-range and nil receivers degrade to the identity, never panic.
	if swap.Pid(-1) != -1 || swap.Pid(99) != 99 || swap.CompSrc(99) != 99 {
		t.Error("out-of-range lookups must be identity")
	}
	var nilCanon *Canon
	if nilCanon.Pid(1) != 1 || nilCanon.SlotSrc(2) != 2 {
		t.Error("nil Canon must be the identity")
	}
	if _, ok := nilCanon.Role("x"); ok {
		t.Error("nil Canon must have no roles")
	}
}

// vecConfig is a configuration vector with one byte of local state per
// process and no shared components.
type vecConfig []byte

func (v vecConfig) AppendCanonicalFingerprint(h *maphash.Hash, c *Canon) {
	for s := range v {
		h.WriteByte(v[c.SlotSrc(s)])
	}
}

func (v vecConfig) AppendCanonicalProcess(h *maphash.Hash, pid int, c *Canon) {
	h.WriteByte(v[pid])
}

func (v vecConfig) config() CanonicalConfig {
	return CanonicalConfig{
		Config:    v.AppendCanonicalFingerprint,
		Process:   v.AppendCanonicalProcess,
		Component: func(*maphash.Hash, int, *Canon) {},
	}
}

// TestCanonicalMinimizesOverOrbit is the algebraic heart: hashing a
// configuration vector through Canonical must give the same value for every
// permutation of the class members' entries, and a different value for a
// vector outside the orbit.
func TestCanonicalMinimizesOverOrbit(t *testing.T) {
	cz, err := NewCanonicalizer(SymmetrySpec{N: 3, Classes: [][]int{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var h maphash.Hash
	fp := func(cfg []byte) uint64 { return cz.Canonical(&h, vecConfig(cfg).config()) }
	orbit := [][]byte{{7, 7, 9}, {7, 9, 7}, {9, 7, 7}}
	want := fp(orbit[0])
	for _, cfg := range orbit[1:] {
		if got := fp(cfg); got != want {
			t.Errorf("fp(%v) = %#x, want %#x (orbit must collapse)", cfg, got, want)
		}
	}
	if got := fp([]byte{9, 9, 7}); got == want {
		t.Error("configuration outside the orbit collapsed onto it")
	}
}

// TestCanonicalCandidateCount pins the cost model: distinct invariants leave
// exactly one candidate, all-equal invariants leave the whole group, and a
// run of r equal invariants contributes r! candidates per class.
func TestCanonicalCandidateCount(t *testing.T) {
	cases := []struct {
		name    string
		classes [][]int
		cfg     []byte
		want    int
	}{
		{"distinct", [][]int{{0, 1, 2, 3}}, []byte{4, 1, 3, 2}, 1},
		{"all equal", [][]int{{0, 1, 2, 3}}, []byte{5, 5, 5, 5}, 24},
		{"one tied pair", [][]int{{0, 1, 2, 3}}, []byte{5, 1, 5, 2}, 2},
		{"two classes, all equal", [][]int{{0, 1, 2}, {3, 4}}, []byte{1, 1, 1, 1, 1}, 12},
		{"two classes, one tie each", [][]int{{0, 1, 2}, {3, 4}}, []byte{1, 2, 1, 3, 3}, 4},
		{"fixed pid outside", [][]int{{1, 2}}, []byte{9, 4, 4}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cz, err := NewCanonicalizer(SymmetrySpec{N: len(c.cfg), Classes: c.classes})
			if err != nil {
				t.Fatal(err)
			}
			var h maphash.Hash
			cfg := vecConfig(c.cfg).config()
			hashed := 0
			whole := cfg.Config
			cfg.Config = func(h *maphash.Hash, e *Canon) { hashed++; whole(h, e) }
			cz.Canonical(&h, cfg)
			if hashed != c.want {
				t.Errorf("hashed %d candidates, want %d", hashed, c.want)
			}
		})
	}
}

// TestRankPermutationInvertsUnrank: the group's mixed-radix layout relies on
// the Lehmer rank being the inverse of unranking, in lexicographic order.
func TestRankPermutationInvertsUnrank(t *testing.T) {
	for n := 1; n <= 5; n++ {
		p := identityPerm(n)
		for r := 0; r < factorial(n); r++ {
			u := make([]int, n)
			unrankPermutation(r, u)
			if got := rankPermutation(u); got != r {
				t.Fatalf("n=%d: rank(unrank(%d)) = %d", n, r, got)
			}
			for i := range p {
				if p[i] != u[i] {
					t.Fatalf("n=%d r=%d: lexicographic successor %v, unrank %v", n, r, p, u)
				}
			}
			if more := nextPermutation(p); more != (r+1 < factorial(n)) {
				t.Fatalf("n=%d r=%d: nextPermutation reported %v", n, r, more)
			}
		}
	}
}

// toyConfig is a configuration with pid-embedding process states and owned
// components: process pid holds a value and a reference to some pid (or -1),
// and owns component pid when it is a class member.
type toyConfig struct {
	val, ref, comp []int
}

func (t toyConfig) AppendCanonicalFingerprint(h *maphash.Hash, c *Canon) {
	for j := range t.comp {
		t.AppendCanonicalComponent(h, c.CompSrc(j), c)
	}
	for s := range t.val {
		t.AppendCanonicalProcess(h, c.SlotSrc(s), c)
	}
}

func (t toyConfig) AppendCanonicalProcess(h *maphash.Hash, pid int, c *Canon) {
	maphash.WriteComparable(h, t.val[pid])
	maphash.WriteComparable(h, c.Pid(t.ref[pid]))
}

func (t toyConfig) AppendCanonicalComponent(h *maphash.Hash, j int, c *Canon) {
	maphash.WriteComparable(h, t.comp[j])
}

func (t toyConfig) config() CanonicalConfig {
	return CanonicalConfig{
		Config:    t.AppendCanonicalFingerprint,
		Process:   t.AppendCanonicalProcess,
		Component: t.AppendCanonicalComponent,
	}
}

// TestCanonicalPartitionMatchesFullGroup checks exactness exhaustively on a
// small space: over every toy configuration of four processes — a class of
// three owning one component each plus one fixed process, states embedding
// pids — Canonical and the full-group minimum must induce the same
// partition, and so each orbit must map to exactly one fingerprint.
func TestCanonicalPartitionMatchesFullGroup(t *testing.T) {
	cz, err := NewCanonicalizer(SymmetrySpec{
		N:       4,
		Classes: [][]int{{0, 1, 2}},
		Owned:   [][]int{{0}, {1}, {2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewFingerprintHash()
	fwd, back := map[uint64]uint64{}, map[uint64]uint64{}
	refs := []int{-1, 0, 1, 3}
	cfg := toyConfig{val: make([]int, 4), ref: make([]int, 4), comp: make([]int, 3)}
	var rec func(d int)
	rec = func(d int) {
		if d == 11 {
			got, want := cz.Canonical(&h, cfg.config()), cz.MinOverGroup(&h, cfg.config())
			if w, ok := fwd[got]; ok && w != want {
				t.Fatalf("%+v: Canonical merges two full-group classes", cfg)
			}
			if g, ok := back[want]; ok && g != got {
				t.Fatalf("%+v: Canonical splits a full-group class", cfg)
			}
			fwd[got], back[want] = want, got
			return
		}
		switch {
		case d < 4:
			for v := 0; v < 2; v++ {
				cfg.val[d] = v
				rec(d + 1)
			}
		case d < 8:
			for _, r := range refs {
				cfg.ref[d-4] = r
				rec(d + 1)
			}
		default:
			for v := 0; v < 2; v++ {
				cfg.comp[d-8] = v
				rec(d + 1)
			}
		}
	}
	rec(0)
	if len(fwd) == 0 || len(fwd) == 1<<4*256*8 {
		t.Fatalf("%d classes: the space did not exercise the group", len(fwd))
	}
}
