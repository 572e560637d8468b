package sched

import (
	"fmt"
	"hash/maphash"
)

// This file is the symmetry-aware path of the fingerprint contract
// (fingerprint.go): configurations that differ only by a permutation of
// interchangeable processes — a process-permutation orbit — are reduced to
// one canonical fingerprint, so stateful exploration stores and prunes per
// orbit instead of per member (up to |class|! fewer states).
//
// Hashing a configuration under a group element π renames it while hashing:
// process states are hashed in π-permuted slot order, components owned by
// class members are co-permuted, embedded pids are rewritten to π(pid), and
// (when declared) input values are rewritten to their π-renamed input role.
// Each such stream encodes the renamed configuration π·C injectively.
//
// The canonical fingerprint is the minimum of that hash over a small,
// orbit-invariant set of candidate elements rather than over the whole group
// (|class|! passes). Each class member i first gets an invariant inv(i): a
// hash of its local state and owned components, written under a relative
// Canon that renders i's own pid and input role as "self", every other
// member of a class as "other member of that class", and leaves pids outside
// every class alone. The invariant is equivariant — inv(πC, π(i)) =
// inv(C, i) — so sorting each class by invariant is well defined up to ties.
// The candidates are the elements that place each class's members into the
// class's slots in nondecreasing invariant order: every permutation within a
// run of equal invariants, and the product of those across runs and classes.
// For any orbit member πC the candidates are σ∘π⁻¹ for the candidates σ of
// C, so the set of hashed configurations {σ·C} — and hence the minimum — is
// the same for the whole orbit. Two different orbits still collide only by a
// 64-bit hash collision, the caveat plain fingerprint pruning already
// accepts, so the partition into orbits is exactly that of the minimum over
// the whole group (MinOverGroup, kept as the reference definition). An
// invariant that is not equivariant (say, a value whose canonical append
// reorders by SlotSrc, which the relative Canon leaves as the identity) can
// only split orbits, never merge them. Exactness of the bounded search is
// therefore preserved: a violation is reported iff its orbit contains one.
//
// Soundness of collapsing an orbit requires the declared group to be an
// automorphism group of the checked system: class members must run the same
// program up to their own input and their owned components, and the check
// must be invariant under permuting class members' outputs (all tasks here
// validate output multisets) and — when input renaming is declared — under a
// bijective renaming of class members' input values (true for the discrete
// tasks, false for eps-approximate agreement). Declarations live in the
// protocol registry (protocol.Protocol.Symmetry); this package only provides
// the group mechanics.

// MaxSymmetryGroup caps the enumerated group size (8! — eight
// interchangeable processes). Beyond it NewCanonicalizer degenerates to the
// identity group (symmetry reduction becomes a no-op) rather than spending
// more time permuting than exploring; exhaustive search at such widths is
// out of reach regardless.
const MaxSymmetryGroup = 40320

// CanonicalFingerprinter is the symmetry-aware side of Fingerprinter:
// implementors append their state with every embedded process identity and
// every declared input value rewritten through the Canon. Objects whose
// state embeds neither may fall back to their plain AppendFingerprint.
type CanonicalFingerprinter interface {
	AppendCanonicalFingerprint(h *maphash.Hash, c *Canon)
}

// SymmetrySpec declares the symmetry group of an nprocs-process system.
type SymmetrySpec struct {
	// N is the number of processes.
	N int
	// Classes are disjoint sets of interchangeable pids: processes running
	// the same program up to their own input and owned components. The group
	// is the product of the symmetric groups on each class.
	Classes [][]int
	// Owned lists, per pid, the components that process owns (writes
	// exclusively, addressed by its identity); they are co-permuted with the
	// process slots. Nil or short slices mean "owns none"; class members must
	// own the same number of components.
	Owned [][]int
	// Roles maps input values to the pid they belong to, for classes whose
	// collapse additionally renames inputs (the task must be invariant under
	// bijective renaming of those values). Values must be comparable.
	Roles map[any]int
}

// Canon is one symmetry-group element π, in the forms value hashing needs:
// slot sources for reordering process states, component sources for owned
// components, the pid image for embedded identities, and the renamed role
// of declared input values.
type Canon struct {
	perm    []int // π: pid -> canonical slot
	slotSrc []int // π⁻¹: canonical slot -> pid
	compSrc []int // ρ⁻¹ over owned components; identity beyond its length
	compDst []int // ρ: component -> canonical position
	roles   map[any]int
}

// Pid returns π(pid), the canonical identity an embedded pid is hashed as.
func (c *Canon) Pid(pid int) int {
	if c == nil || pid < 0 || pid >= len(c.perm) {
		return pid
	}
	return c.perm[pid]
}

// SlotSrc returns the pid whose state is hashed at canonical slot s.
func (c *Canon) SlotSrc(s int) int {
	if c == nil || s < 0 || s >= len(c.slotSrc) {
		return s
	}
	return c.slotSrc[s]
}

// CompSrc returns the component hashed at canonical component position j
// (identity for components no class member owns).
func (c *Canon) CompSrc(j int) int {
	if c == nil || j < 0 || j >= len(c.compSrc) {
		return j
	}
	return c.compSrc[j]
}

// CompDst returns ρ(j), the canonical position an embedded component index
// is rewritten to (identity for components no class member owns).
func (c *Canon) CompDst(j int) int {
	if c == nil || j < 0 || j >= len(c.compDst) {
		return j
	}
	return c.compDst[j]
}

// Role returns the π-renamed input role of v, if v is a declared input
// value: the hash writes the role token instead of the raw value, so orbit
// members that wrote different class inputs still hash identically.
func (c *Canon) Role(v any) (int, bool) {
	if c == nil || c.roles == nil {
		return 0, false
	}
	j, ok := c.roles[v]
	if !ok {
		return 0, false
	}
	return c.perm[j], true
}

// CanonicalConfig is a configuration as Canonical reads it: whole, and one
// process or component at a time (for the per-process invariants). It is a
// set of function values rather than an interface so that closures over the
// caller's state stay on the stack.
type CanonicalConfig struct {
	// Config appends the full configuration under c (slots, components,
	// pids and roles rewritten).
	Config func(h *maphash.Hash, c *Canon)
	// Process appends the local state of process pid under c.
	Process func(h *maphash.Hash, pid int, c *Canon)
	// Component appends the value of shared component j under c.
	Component func(h *maphash.Hash, j int, c *Canon)
}

// maxMoved bounds the members of classes with two or more pids in an
// uncapped group: a product of factorials of sizes >= 2 within
// MaxSymmetryGroup has at most 30 such members (fifteen pairs), so
// Canonical keeps its per-call state in fixed arrays on the stack.
const maxMoved = 32

// Canonicalizer enumerates a symmetry group once and computes canonical
// fingerprints by minimizing the configuration hash over the candidate
// elements of each configuration. It is read-only after construction and
// safe to share across systems and goroutines.
type Canonicalizer struct {
	spec SymmetrySpec
	// elems is the full group in mixed-radix order: the element whose
	// class-k permutation has Lehmer rank r_k sits at Σ r_k·stride_k, so
	// elems[0] is the identity and a candidate is found by ranking it.
	elems   []*Canon
	capped  bool
	classes []canonClass // classes with two or more members; none when capped
	rel     []*Canon     // per pid: the relative Canon of a class member, else nil
}

// canonClass is one class of two or more interchangeable pids.
type canonClass struct {
	pids   []int // the class's slots in declaration order
	off    int   // offset of the class's members in Canonical's arrays
	stride int   // weight of the class's Lehmer rank in elems
}

// NewCanonicalizer validates spec and enumerates its group. Structural
// errors (out-of-range or overlapping class pids, mismatched owned-component
// counts) are returned; a group larger than MaxSymmetryGroup is not an
// error — the canonicalizer degenerates to the identity group (Capped
// reports it) and symmetry reduction becomes a no-op.
func NewCanonicalizer(spec SymmetrySpec) (*Canonicalizer, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("sched: symmetry over %d processes", spec.N)
	}
	seen := make([]bool, spec.N)
	ownedOf := func(pid int) []int {
		if pid < len(spec.Owned) {
			return spec.Owned[pid]
		}
		return nil
	}
	size := 1
	for _, cl := range spec.Classes {
		for _, pid := range cl {
			if pid < 0 || pid >= spec.N {
				return nil, fmt.Errorf("sched: symmetry class pid %d out of range [0, %d)", pid, spec.N)
			}
			if seen[pid] {
				return nil, fmt.Errorf("sched: pid %d in two symmetry classes", pid)
			}
			seen[pid] = true
			if len(ownedOf(pid)) != len(ownedOf(cl[0])) {
				return nil, fmt.Errorf("sched: symmetry class %v: pid %d owns %d components, pid %d owns %d (must match)",
					cl, pid, len(ownedOf(pid)), cl[0], len(ownedOf(cl[0])))
			}
		}
		if size <= MaxSymmetryGroup {
			size *= factorial(len(cl))
		}
	}
	cz := &Canonicalizer{spec: spec}
	if size > MaxSymmetryGroup {
		cz.capped = true
		cz.elems = []*Canon{cz.newCanon(identityPerm(spec.N))}
		return cz, nil
	}
	moved, stride := 0, 1 // the first class's rank varies fastest
	for _, cl := range spec.Classes {
		if len(cl) >= 2 {
			cz.classes = append(cz.classes, canonClass{pids: cl, off: moved, stride: stride})
			moved += len(cl)
			stride *= factorial(len(cl))
		}
	}
	cz.elems = make([]*Canon, size)
	var buf [8]int // classes of an uncapped group have at most 8 members
	for idx := range cz.elems {
		perm := identityPerm(spec.N)
		for _, cl := range cz.classes {
			k := len(cl.pids)
			p := buf[:k]
			unrankPermutation((idx/cl.stride)%factorial(k), p)
			for i, pid := range cl.pids {
				perm[pid] = cl.pids[p[i]]
			}
		}
		cz.elems[idx] = cz.newCanon(perm)
	}
	// Relative Canons: member i is "self" (token N), every other member of
	// class k is "other of class k" (token N+1+k); tokens lie outside the
	// pid range, and pids outside every class keep their identity. Slots and
	// components stay in place.
	cz.rel = make([]*Canon, spec.N)
	for _, cl := range cz.classes {
		for _, self := range cl.pids {
			perm := identityPerm(spec.N)
			for k, other := range cz.classes {
				for _, pid := range other.pids {
					perm[pid] = spec.N + 1 + k
				}
			}
			perm[self] = spec.N
			cz.rel[self] = &Canon{perm: perm, roles: spec.Roles}
		}
	}
	return cz, nil
}

// newCanon derives the lookup tables of one group element from π.
func (cz *Canonicalizer) newCanon(perm []int) *Canon {
	c := &Canon{perm: perm, slotSrc: make([]int, len(perm)), roles: cz.spec.Roles}
	maxComp := -1
	for pid, own := range cz.spec.Owned {
		if pid < len(perm) {
			for _, j := range own {
				maxComp = max(maxComp, j)
			}
		}
	}
	if maxComp >= 0 {
		c.compSrc = identityPerm(maxComp + 1)
		c.compDst = identityPerm(maxComp + 1)
	}
	for pid, s := range perm {
		c.slotSrc[s] = pid
		// Component own[pid][g] moves to position own[π(pid)][g]: the state of
		// pid lands in slot π(pid), and with it its owned components.
		if pid < len(cz.spec.Owned) {
			src, dst := cz.spec.Owned[pid], cz.spec.Owned[s]
			for g := range src {
				c.compSrc[dst[g]] = src[g]
				c.compDst[src[g]] = dst[g]
			}
		}
	}
	return c
}

// Trivial reports whether the group is the identity alone — canonical and
// plain fingerprints then pick out exactly the same states (though not the
// same hash values when Roles are declared).
func (cz *Canonicalizer) Trivial() bool { return len(cz.elems) == 1 && cz.spec.Roles == nil }

// Size returns the enumerated group size.
func (cz *Canonicalizer) Size() int { return len(cz.elems) }

// Capped reports that the declared group exceeded MaxSymmetryGroup and was
// degenerated to the identity.
func (cz *Canonicalizer) Capped() bool { return cz.capped }

// Canonical computes the canonical fingerprint of cfg: the minimum of the
// configuration hash over the candidate elements that sort each class's
// members by their invariants (see the file comment). h is scratch space,
// reset per invariant and per candidate. It makes no heap allocation.
func (cz *Canonicalizer) Canonical(h *maphash.Hash, cfg CanonicalConfig) uint64 {
	if len(cz.classes) == 0 {
		h.Reset()
		cfg.Config(h, cz.elems[0])
		return h.Sum64()
	}
	// inv[off+i] is the invariant of class member pids[i]; order[off+r] is
	// the position in pids of the member placed at slot pids[r].
	var inv [maxMoved]uint64
	var order [maxMoved]int
	for _, cl := range cz.classes {
		for i, pid := range cl.pids {
			c := cz.rel[pid]
			h.Reset()
			cfg.Process(h, pid, c)
			if pid < len(cz.spec.Owned) {
				for _, j := range cz.spec.Owned[pid] {
					cfg.Component(h, j, c)
				}
			}
			inv[cl.off+i] = h.Sum64()
		}
		// Insertion sort by (invariant, position): classes hold at most 8
		// members. Runs of equal invariants start ascending, the first
		// permutation nextPermutation enumerates from.
		ord := order[cl.off : cl.off+len(cl.pids)]
		for i := range ord {
			ord[i] = i
			for j := i; j > 0 && inv[cl.off+ord[j]] < inv[cl.off+ord[j-1]]; j-- {
				ord[j], ord[j-1] = ord[j-1], ord[j]
			}
		}
	}
	best := ^uint64(0)
	for {
		idx := 0
		for _, cl := range cz.classes {
			var p [8]int
			for r, pos := range order[cl.off : cl.off+len(cl.pids)] {
				p[pos] = r
			}
			idx += cl.stride * rankPermutation(p[:len(cl.pids)])
		}
		h.Reset()
		cfg.Config(h, cz.elems[idx])
		if v := h.Sum64(); v < best {
			best = v
		}
		if !cz.nextCandidate(inv[:], order[:]) {
			return best
		}
	}
}

// nextCandidate advances order to the next candidate, odometer style: the
// runs of equal invariants are the digits, each stepping through its
// permutations in lexicographic order. It reports false, with every run
// back at its first permutation, after the last candidate.
func (cz *Canonicalizer) nextCandidate(inv []uint64, order []int) bool {
	for _, cl := range cz.classes {
		end := cl.off + len(cl.pids)
		for lo := cl.off; lo < end; {
			hi := lo + 1
			for hi < end && inv[cl.off+order[hi]] == inv[cl.off+order[lo]] {
				hi++
			}
			if hi-lo > 1 && nextPermutation(order[lo:hi]) {
				return true
			}
			lo = hi
		}
	}
	return false
}

// MinOverGroup is the reference definition of the canonical fingerprint:
// the minimum of the configuration hash over every element of the group,
// |G| passes. Canonical induces the same partition of configurations at a
// fraction of the cost; tests compare the two.
func (cz *Canonicalizer) MinOverGroup(h *maphash.Hash, cfg CanonicalConfig) uint64 {
	best := ^uint64(0)
	for _, c := range cz.elems {
		h.Reset()
		cfg.Config(h, c)
		if v := h.Sum64(); v < best {
			best = v
		}
	}
	return best
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// rankPermutation returns the Lehmer rank of permutation p of [0, len(p)):
// its index in lexicographic order.
func rankPermutation(p []int) int {
	r := 0
	for i := range p {
		less := 0
		for _, q := range p[i+1:] {
			if q < p[i] {
				less++
			}
		}
		r = r*(len(p)-i) + less
	}
	return r
}

// unrankPermutation sets p to the permutation of [0, len(p)) with Lehmer
// rank r.
func unrankPermutation(r int, p []int) {
	for i := range p {
		p[i] = i
	}
	for i := range p {
		f := factorial(len(p) - 1 - i)
		d := r / f
		r %= f
		// Move the d-th smallest unused value to position i; the unused tail
		// stays sorted.
		v := p[i+d]
		copy(p[i+1:i+d+1], p[i:i+d])
		p[i] = v
	}
}

// nextPermutation steps p to its lexicographic successor; after the last
// permutation it restores the first (ascending) one and reports false.
func nextPermutation(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i >= 0 {
		j := len(p) - 1
		for p[j] <= p[i] {
			j--
		}
		p[i], p[j] = p[j], p[i]
	}
	for l, r := i+1, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return i >= 0
}
