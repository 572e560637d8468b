package harness

import (
	"fmt"
	"hash/maphash"
	"sync"
	"testing"

	"revisionist/internal/proto"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/spec"
	"revisionist/internal/trace"
)

// symProtocols returns the registered protocols that declare a non-trivial
// symmetry at the given small parameters, with those parameters.
func symProtocols(t *testing.T) map[string]protocol.Params {
	t.Helper()
	out := map[string]protocol.Params{}
	for _, pr := range protocol.Protocols() {
		params := smallCheckParams(pr.Name)
		p, err := pr.Resolve(params)
		if err != nil {
			t.Fatal(err)
		}
		sym := pr.Symmetry(p)
		nontrivial := sym.RenameInputs
		for _, cl := range sym.Classes {
			if len(cl) >= 2 {
				nontrivial = true
			}
		}
		if nontrivial {
			out[pr.Name] = params
		}
	}
	if len(out) < 5 {
		t.Fatalf("expected at least 5 symmetric protocols, got %v", out)
	}
	return out
}

// symSystem builds one protocol system by hand with explicit inputs, ungated
// (a no-op stepper), runs the given pid schedule on it, and returns its
// canonical fingerprint. It mirrors factory/protoSystem, minus the engine.
func symSystem(t *testing.T, pr *protocol.Protocol, p protocol.Params,
	inputs []spec.Value, schedule []int) uint64 {
	t.Helper()
	inst, err := pr.InstantiateWith(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	res := proto.NewRunResult(len(inst.Procs))
	snap := shmem.NewMWSnapshot("M", shmem.Free{}, inst.M, nil)
	sys := protoSystem(inst, snap, res, proto.Machines(inst.Procs, snap, res), canonicalizer(pr, p))
	for _, pid := range schedule {
		sys.Machines[pid].Resume()
	}
	h := sched.NewFingerprintHash()
	return sys.CanonicalFingerprint(&h)
}

// TestCanonicalFingerprintOrbitEquivalence is satellite soundness at the
// system level: configurations of one (default-inputs) system reached by
// σ-permuted schedules are one process-permutation orbit — the same progress
// assigned to renamed processes, holding correspondingly renamed inputs —
// and must get byte-identical canonical fingerprints. Configurations that
// genuinely differ (a non-canonical input value written in place of a
// declared one) must not collapse onto any orbit member.
func TestCanonicalFingerprintOrbitEquivalence(t *testing.T) {
	pr := protocol.MustLookup("firstvalue")
	p, err := pr.Resolve(protocol.Params{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := pr.DefaultInputs(p, p.N)
	for _, sigma := range [][]int{{1, 0, 2}, {1, 2, 0}, {2, 1, 0}} {
		for _, schedA := range [][]int{
			{},
			{0},
			{0, 0, 1, 2, 0},
			{2, 2, 1, 0, 2, 1, 0},
		} {
			schedB := make([]int, len(schedA))
			for i, pid := range schedA {
				schedB[i] = sigma[pid]
			}
			a := symSystem(t, pr, p, inputs, schedA)
			b := symSystem(t, pr, p, inputs, schedB)
			if a != b {
				t.Errorf("σ=%v schedule %v: orbit members hash apart: %#x vs %#x", sigma, schedA, a, b)
			}
		}
	}
	// Negative 1: different progress is a different orbit.
	if symSystem(t, pr, p, inputs, []int{0}) == symSystem(t, pr, p, inputs, []int{0, 0}) {
		t.Error("configurations of different progress collapsed")
	}
	// Negative 2: the same schedule writing an undeclared input value reaches
	// a configuration outside every canonical orbit (the stray value falls
	// back to the plain encoding instead of a role token).
	stray := []spec.Value{inputs[0], inputs[1], 999}
	if symSystem(t, pr, p, inputs, []int{2, 2, 2}) == symSystem(t, pr, p, stray, []int{2, 2, 2}) {
		t.Error("distinct-input configuration collapsed onto the canonical orbit")
	}
}

// TestCheckSymmetryMatchesUnreduced is the exactness contract of -symmetry:
// for every symmetric registered protocol at exhaustive bounds, the
// symmetry-reduced search must report the same Exhausted flag as plain
// pruning, find violations iff plain pruning does (the violation set modulo
// renaming interchangeable processes), never run more schedules, and every
// violation it reports must reproduce under replay. make race runs this
// package with -race.
func TestCheckSymmetryMatchesUnreduced(t *testing.T) {
	for name, params := range symProtocols(t) {
		t.Run(name, func(t *testing.T) {
			opts := Options{
				Protocol:      name,
				Params:        params,
				MaxDepth:      10,
				MaxRuns:       100_000,
				MaxViolations: 5,
				Prune:         true,
			}
			pruned, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Symmetry = true
			sym, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			pl, sy := pruned.Explore, sym.Explore
			if pl.Exhausted != sy.Exhausted {
				t.Fatalf("Exhausted diverges: pruned %v, symmetry %v", pl.Exhausted, sy.Exhausted)
			}
			if sy.Runs > pl.Runs {
				t.Fatalf("symmetry ran more schedules: %d vs %d", sy.Runs, pl.Runs)
			}
			if sy.Distinct > pl.Distinct {
				t.Fatalf("symmetry closed more states: %d vs %d", sy.Distinct, pl.Distinct)
			}
			if (len(sy.Violations) > 0) != (len(pl.Violations) > 0) {
				t.Fatalf("violation presence diverges: symmetry %d, pruned %d",
					len(sy.Violations), len(pl.Violations))
			}
			pr, p, err := opts.resolve()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range sy.Violations {
				violErr, runErr := trace.ReplayViolation(p.N, factory(pr, p), opts.Engine, v)
				if runErr != nil {
					t.Fatalf("violation %d: replay failed: %v", i, runErr)
				}
				if violErr == nil {
					t.Fatalf("violation %d on schedule %v did not reproduce", i, v.Schedule)
				}
			}
		})
	}
	// The payoff is pinned where it is largest: firstvalue's full S_n group
	// must yield strictly fewer runs AND strictly fewer distinct states.
	t.Run("firstvalue-strictly-fewer", func(t *testing.T) {
		opts := Options{Protocol: "firstvalue", Params: protocol.Params{N: 3},
			MaxDepth: 20, MaxRuns: 2_000_000, Prune: true}
		pruned, err := Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Symmetry = true
		sym, err := Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sym.Explore.Exhausted || sym.Explore.Exhausted != pruned.Explore.Exhausted {
			t.Fatalf("not exhausted: pruned %v symmetry %v", pruned.Explore.Exhausted, sym.Explore.Exhausted)
		}
		if sym.Explore.Runs >= pruned.Explore.Runs {
			t.Fatalf("no run reduction: %d vs %d", sym.Explore.Runs, pruned.Explore.Runs)
		}
		if 3*sym.Explore.Distinct > pruned.Explore.Distinct {
			t.Fatalf("collapse below 3x on the S_3 orbit: %d vs %d distinct",
				sym.Explore.Distinct, pruned.Explore.Distinct)
		}
	})
}

// TestCheckSymmetryWorkersDeterministic extends the workers=1 ≡ workers=N
// contract to symmetry-reduced pruning over every symmetric protocol.
func TestCheckSymmetryWorkersDeterministic(t *testing.T) {
	for name, params := range symProtocols(t) {
		t.Run(name, func(t *testing.T) {
			opts := Options{
				Protocol:      name,
				Params:        params,
				MaxDepth:      10,
				MaxRuns:       4000,
				MaxViolations: 3,
				Symmetry:      true, // implies Prune
				Workers:       1,
			}
			seq, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 8
			par, err := Check(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkReportsEqual(t, name, seq.Explore, par.Explore)
		})
	}
}

// TestCanonicalFingerprintNoOpWithoutSymmetry: on a protocol that declares no
// symmetry (paxos), the canonical hook must equal the plain fingerprint, so
// -symmetry is a strict no-op there.
func TestCanonicalFingerprintNoOpWithoutSymmetry(t *testing.T) {
	pr := protocol.MustLookup("paxos")
	p, err := pr.Resolve(protocol.Params{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	cz := canonicalizer(pr, p)
	if !cz.Trivial() {
		t.Fatal("paxos must have the trivial group")
	}
	inst, err := pr.Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	res := proto.NewRunResult(len(inst.Procs))
	snap := shmem.NewMWSnapshot("M", shmem.Free{}, inst.M, nil)
	sys := protoSystem(inst, snap, res, proto.Machines(inst.Procs, snap, res), cz)
	sys.Machines[0].Resume()
	sys.Machines[1].Resume()
	h := sched.NewFingerprintHash()
	canon := sys.CanonicalFingerprint(&h)
	var hp maphash.Hash = sched.NewFingerprintHash()
	sys.Fingerprint(&hp)
	if canon != hp.Sum64() {
		t.Fatal("trivial-group canonical fingerprint differs from the plain fingerprint")
	}
}

// TestCanonicalPartitionMatchesFullGroup is the exactness contract of the
// candidate-only canonical fingerprint on the registered protocols: over
// every configuration a plain-fingerprint pruned search reaches, Canonical
// and the full-group minimum (sched.Canonicalizer.MinOverGroup) must induce
// the same partition — no orbit split, no two orbits merged.
func TestCanonicalPartitionMatchesFullGroup(t *testing.T) {
	cases := []struct {
		name   string
		params protocol.Params
		depth  int
		// collapses: some reachable configurations share an orbit. aa2's two
		// halvers hold different inputs it may not rename, so its reachable
		// orbits are singletons.
		collapses bool
	}{
		{"firstvalue", protocol.Params{N: 3}, 14, true},
		{"firstvalue", protocol.Params{N: 4}, 10, true},
		{"firstvalue", protocol.Params{N: 5}, 5, true},
		{"firstvalue-consensus", protocol.Params{N: 3}, 12, true},
		{"singleton", protocol.Params{N: 3}, 10, true},
		{"kset", protocol.Params{N: 4, K: 3}, 12, true},
		{"lane-kset", protocol.Params{N: 4, K: 3, X: 1}, 12, true},
		{"aa2", protocol.Params{N: 2}, 12, false},
		{"aan", protocol.Params{N: 3}, 10, true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/n=%d", c.name, c.params.N), func(t *testing.T) {
			pr := protocol.MustLookup(c.name)
			p, err := pr.Resolve(c.params)
			if err != nil {
				t.Fatal(err)
			}
			cz := canonicalizer(pr, p)
			if cz.Size() < 2 {
				t.Fatalf("group of size %d: nothing to compare", cz.Size())
			}
			var mu sync.Mutex
			fwd, back := map[uint64]uint64{}, map[uint64]uint64{}
			plain := map[uint64]bool{}
			build := func(gate sched.Stepper) trace.System {
				inst, err := pr.Instantiate(p)
				if err != nil {
					panic(err)
				}
				res := proto.NewRunResult(len(inst.Procs))
				snap := shmem.NewMWSnapshot("M", gate, inst.M, nil)
				machines := proto.Machines(inst.Procs, snap, res)
				sys := protoSystem(inst, snap, res, machines, cz)
				fp := sys.Fingerprint
				h := sched.NewFingerprintHash()
				sys.Fingerprint = func(hp *maphash.Hash) {
					fp(hp)
					pc := protoConfig{snap, machines}
					cfg := sched.CanonicalConfig{
						Config: pc.appendConfig, Process: pc.appendProcess, Component: snap.AppendCanonicalComponent,
					}
					got, want := cz.Canonical(&h, cfg), cz.MinOverGroup(&h, cfg)
					plain[hp.Sum64()] = true
					mu.Lock()
					defer mu.Unlock()
					if w, ok := fwd[got]; ok && w != want {
						t.Errorf("Canonical merges two full-group classes (%#x)", got)
					}
					if g, ok := back[want]; ok && g != got {
						t.Errorf("Canonical splits a full-group class (%#x)", want)
					}
					fwd[got], back[want] = want, got
				}
				return sys
			}
			_, err = trace.Explore(p.N, build, trace.ExploreOpts{
				MaxDepth: c.depth, MaxRuns: 200_000, MaxViolations: 1 << 20,
				Prune: true, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(back) < 2 || c.collapses && len(back) >= len(plain) {
				t.Fatalf("%d orbits over %d configurations: the search did not exercise the group",
					len(back), len(plain))
			}
		})
	}
}

// TestCanonicalFingerprintAllocFree: a canonical fingerprint call makes no
// heap allocation, with invariants tied (the initial configuration hashes
// the whole group) or not.
func TestCanonicalFingerprintAllocFree(t *testing.T) {
	pr := protocol.MustLookup("firstvalue")
	p, err := pr.Resolve(protocol.Params{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := pr.Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	res := proto.NewRunResult(len(inst.Procs))
	snap := shmem.NewMWSnapshot("M", shmem.Free{}, inst.M, nil)
	sys := protoSystem(inst, snap, res, proto.Machines(inst.Procs, snap, res), canonicalizer(pr, p))
	h := sched.NewFingerprintHash()
	for _, schedule := range [][]int{{}, {3, 3, 1}} {
		for _, pid := range schedule {
			sys.Machines[pid].Resume()
		}
		if a := testing.AllocsPerRun(20, func() { sys.CanonicalFingerprint(&h) }); a != 0 {
			t.Errorf("after %v: %v allocations per canonical fingerprint", schedule, a)
		}
	}
}
