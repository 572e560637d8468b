package trace

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"revisionist/internal/algorithms"
	"revisionist/internal/augsnap"
	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// forkableSystem assembles a fully stateful-capable System over a protocol
// instance: machines, task-free check, configuration fingerprint and a
// recursive deep fork — the same wiring the harness installs.
func forkableSystem(procs []proto.Process, m int, snap *shmem.MWSnapshot, res *proto.RunResult,
	machines []sched.Machine, check func(res *proto.RunResult) error) System {
	return System{
		Machines: machines,
		Check: func(*sched.Result) error {
			return check(res)
		},
		Fingerprint: func(h *maphash.Hash) {
			snap.AppendFingerprint(h)
			for _, mc := range machines {
				mc.(sched.Fingerprinter).AppendFingerprint(h)
			}
		},
		Fork: func(gate sched.Stepper) System {
			snap2 := snap.Fork(gate)
			res2 := res.Clone()
			return forkableSystem(procs, m, snap2, res2, proto.ForkMachines(machines, snap2, res2), check)
		},
	}
}

// consensusAgreeFactory builds an n-process consensus system checked for
// agreement over the done outputs.
func consensusAgreeFactory(n int) Factory {
	return func(gate sched.Stepper) System {
		inputs := make([]proto.Value, n)
		for i := range inputs {
			inputs[i] = 100 + i
		}
		procs, m, err := algorithms.NewConsensus(n, inputs)
		if err != nil {
			panic(err)
		}
		res := proto.NewRunResult(n)
		snap := shmem.NewMWSnapshot("M", gate, m, nil)
		return forkableSystem(procs, m, snap, res, proto.Machines(procs, snap, res),
			func(res *proto.RunResult) error {
				var first proto.Value
				for _, v := range res.DoneOutputs() {
					if first == nil {
						first = v
					} else if v != first {
						return fmt.Errorf("disagreement: %v vs %v", first, v)
					}
				}
				return nil
			})
	}
}

// firstValueFactory builds n FirstValue processes racing on one component,
// with no violating checks (the trivial task).
func firstValueFactory(n int) Factory {
	return func(gate sched.Stepper) System {
		procs := make([]proto.Process, n)
		for i := range procs {
			procs[i] = algorithms.NewFirstValue(0, 100+i)
		}
		res := proto.NewRunResult(n)
		snap := shmem.NewMWSnapshot("M", gate, 1, nil)
		return forkableSystem(procs, 1, snap, res, proto.Machines(procs, snap, res),
			func(*proto.RunResult) error { return nil })
	}
}

// TestStatefulAblationMatchesPlain runs the full prune x checkpoint ablation
// against the plain explorer: checkpoint-only must be byte-identical
// (checkpointing is a pure execution optimization), and pruned runs must
// preserve the Exhausted flag and find strictly fewer schedules.
func TestStatefulAblationMatchesPlain(t *testing.T) {
	for _, c := range []struct {
		name    string
		nprocs  int
		factory Factory
		opts    ExploreOpts
	}{
		{"firstvalue-3", 3, firstValueFactory(3), ExploreOpts{MaxDepth: 20}},
		{"consensus-2", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 12}},
		{"consensus-2-capped", 2, consensusAgreeFactory(2), ExploreOpts{MaxDepth: 16, MaxRuns: 900}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plainOpts := c.opts
			plainOpts.Workers = 1
			plain, err := Explore(c.nprocs, c.factory, plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				cp := c.opts
				cp.Checkpoint = true
				cp.Workers = workers
				cpRep, err := Explore(c.nprocs, c.factory, cp)
				if err != nil {
					t.Fatal(err)
				}
				if cpRep.Runs != plain.Runs || cpRep.Truncated != plain.Truncated ||
					cpRep.Exhausted != plain.Exhausted || len(cpRep.Violations) != len(plain.Violations) {
					t.Fatalf("workers=%d: checkpoint-only diverges from plain: %+v vs %+v",
						workers, cpRep, plain)
				}
				for i := range cpRep.Violations {
					if fmt.Sprint(cpRep.Violations[i].Schedule) != fmt.Sprint(plain.Violations[i].Schedule) {
						t.Fatalf("workers=%d: violation %d schedule diverges", workers, i)
					}
				}
			}
			for _, mode := range []struct {
				tag        string
				checkpoint bool
			}{{"prune", false}, {"prune+checkpoint", true}} {
				for _, workers := range testWorkers {
					pr := c.opts
					pr.Prune = true
					pr.Checkpoint = mode.checkpoint
					pr.Workers = workers
					prRep, err := Explore(c.nprocs, c.factory, pr)
					if err != nil {
						t.Fatal(err)
					}
					// Exhausted must match — except that pruning may finish a
					// space the plain search's MaxRuns budget cut short.
					capped := c.opts.MaxRuns > 0 && plain.Runs >= c.opts.MaxRuns
					if prRep.Exhausted != plain.Exhausted && !(capped && prRep.Exhausted) {
						t.Fatalf("%s workers=%d: Exhausted diverges: %v vs %v", mode.tag, workers, prRep.Exhausted, plain.Exhausted)
					}
					if prRep.Runs > plain.Runs {
						t.Fatalf("%s workers=%d: pruned search ran more schedules (%d) than plain (%d)",
							mode.tag, workers, prRep.Runs, plain.Runs)
					}
					if len(prRep.Violations) > 0 != (len(plain.Violations) > 0) {
						t.Fatalf("%s workers=%d: violation presence diverges", mode.tag, workers)
					}
				}
			}
		})
	}
}

// TestPrunedCheckpointIdentical pins that checkpointing changes nothing
// about a pruned report — it only changes how runs are executed.
func TestPrunedCheckpointIdentical(t *testing.T) {
	for _, w := range testWorkers {
		opts := ExploreOpts{MaxDepth: 20, Prune: true, Workers: w}
		a, err := Explore(4, firstValueFactory(4), opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Checkpoint = true
		b, err := Explore(4, firstValueFactory(4), opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Runs != b.Runs || a.Pruned != b.Pruned || a.Distinct != b.Distinct ||
			a.Truncated != b.Truncated || a.Exhausted != b.Exhausted {
			t.Fatalf("workers=%d: checkpointing changed the pruned report: %+v vs %+v", w, a, b)
		}
		if a.Pruned == 0 || a.Distinct == 0 {
			t.Fatalf("workers=%d: expected pruning on the symmetric protocol, got %+v", w, a)
		}
	}
}

// TestFpTableStripesEven publishes canonical-style fingerprints — each the
// minimum of 12 random hashes, so their top bits lean towards zero — and
// requires every stripe to hold at most 3x its fair share of the keys, and
// every key to be found again.
func TestFpTableStripesEven(t *testing.T) {
	const keys, hashes = 1 << 14, 12
	rng := rand.New(rand.NewSource(1))
	local := make(map[uint64]int, keys)
	for len(local) < keys {
		fp := uint64(math.MaxUint64)
		for range hashes {
			fp = min(fp, rng.Uint64())
		}
		local[fp] = len(local)
	}
	table := newFpTable()
	table.publish(local)
	if table.size() != keys {
		t.Fatalf("table holds %d keys, want %d", table.size(), keys)
	}
	for fp, rem := range local {
		if got, ok := table.lookup(fp); !ok || got != rem {
			t.Fatalf("lookup(%x) = %d, %v; want %d, true", fp, got, ok, rem)
		}
	}
	fair := keys / len(table.stripes)
	for i := range table.stripes {
		if n := len(table.stripes[i].m); n > 3*fair {
			t.Fatalf("stripe %d holds %d keys, more than 3x the fair share %d", i, n, fair)
		}
	}
}

// TestPruneRequiresCapabilities: Prune without a fingerprint and Checkpoint
// without a fork (or on the goroutine engine) are contract errors, not
// silent degradations.
func TestPruneRequiresCapabilities(t *testing.T) {
	if _, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 6, Prune: true}); err == nil ||
		!strings.Contains(err.Error(), "Fingerprint") {
		t.Fatalf("Prune without Fingerprint: got %v", err)
	}
	if _, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 6, Checkpoint: true}); err == nil ||
		!strings.Contains(err.Error(), "Fork") {
		t.Fatalf("Checkpoint without Fork: got %v", err)
	}
	if _, err := Explore(2, consensusAgreeFactory(2),
		ExploreOpts{MaxDepth: 6, Checkpoint: true, Engine: sched.EngineGoroutine}); err == nil ||
		!strings.Contains(err.Error(), "sequential") {
		t.Fatalf("Checkpoint on the goroutine engine: got %v", err)
	}
}

// TestSymmetryRequiresCapabilities: Symmetry without Prune, and Symmetry on
// a system exposing no CanonicalFingerprint, are contract errors, not silent
// degradations to plain pruning.
func TestSymmetryRequiresCapabilities(t *testing.T) {
	if _, err := Explore(2, consensusAgreeFactory(2),
		ExploreOpts{MaxDepth: 6, Symmetry: true}); err == nil ||
		!strings.Contains(err.Error(), "Prune") {
		t.Fatalf("Symmetry without Prune: got %v", err)
	}
	// consensusAgreeFactory wires Fingerprint and Fork but no canonical hook.
	if _, err := Explore(2, consensusAgreeFactory(2),
		ExploreOpts{MaxDepth: 6, Prune: true, Symmetry: true}); err == nil ||
		!strings.Contains(err.Error(), "CanonicalFingerprint") {
		t.Fatalf("Symmetry without CanonicalFingerprint: got %v", err)
	}
}

// TestExploreDivergenceFails: a nondeterministic factory must fail the
// exploration with a descriptive replay-divergence error instead of silently
// mis-exploring (the old enabled[0] fallback) — on every search path: the
// sequential loop, the parallel planner's probes, the pruned explorer and
// the distributed plan.
func TestExploreDivergenceFails(t *testing.T) {
	// divergent returns a fresh factory whose process 1 shrinks from the
	// third construction on. Several workers may build at once.
	divergent := func() Factory {
		var builds atomic.Int64
		return func(gate sched.Stepper) System {
			reg := shmem.NewRegister("R", gate, nil)
			ops1 := 2
			if builds.Add(1) > 2 {
				ops1 = 1
			}
			var wrote [2]int
			return System{
				Body: func(pid int) {
					n := 2
					if pid == 1 {
						n = ops1
					}
					for i := 0; i < n; i++ {
						reg.Write(pid, pid)
						wrote[pid]++
					}
				},
				Check: func(*sched.Result) error { return nil },
				Fingerprint: func(h *maphash.Hash) {
					reg.AppendFingerprint(h)
					maphash.WriteComparable(h, wrote)
				},
			}
		}
	}
	wantDiverged := func(t *testing.T, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("want replay-divergence error, got %v", err)
		}
	}
	for _, workers := range []int{1, 2} {
		for _, prune := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/prune=%v", workers, prune), func(t *testing.T) {
				_, err := Explore(2, divergent(), ExploreOpts{MaxDepth: 10, Workers: workers, Prune: prune})
				wantDiverged(t, err)
			})
		}
	}
	for _, prune := range []bool{false, true} {
		t.Run(fmt.Sprintf("SubtreePlan/prune=%v", prune), func(t *testing.T) {
			_, _, err := SubtreePlan(2, divergent(), ExploreOpts{MaxDepth: 10, Prune: prune})
			wantDiverged(t, err)
		})
	}
}

// fpRecorder wraps a strategy and records the configuration fingerprint at
// every decision point, where both engines are quiescent by construction.
type fpRecorder struct {
	inner sched.Strategy
	fp    func(*maphash.Hash)
	h     maphash.Hash
	out   []uint64
}

func (r *fpRecorder) Pick(step int, enabled []int) int {
	r.h.Reset()
	r.fp(&r.h)
	r.out = append(r.out, r.h.Sum64())
	return r.inner.Pick(step, enabled)
}

// TestFingerprintsIdenticalAcrossEngines drives the same seeded schedule on
// both engines over a register-based and an augsnap-based system and
// requires byte-identical configuration hashes at every step.
func TestFingerprintsIdenticalAcrossEngines(t *testing.T) {
	runBoth := func(t *testing.T, nprocs int, seed int64,
		build func(gate sched.Stepper) (func(pid int), func(*maphash.Hash))) {
		t.Helper()
		var got [2][]uint64
		for i, kind := range []sched.EngineKind{sched.EngineSeq, sched.EngineGoroutine} {
			rec := &fpRecorder{inner: sched.NewRandom(seed), h: sched.NewFingerprintHash()}
			eng, err := sched.NewEngine(kind, nprocs, rec, sched.WithMaxSteps(1<<22))
			if err != nil {
				t.Fatal(err)
			}
			body, fp := build(eng)
			rec.fp = fp
			if _, err := eng.Run(body); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			got[i] = rec.out
		}
		if len(got[0]) == 0 {
			t.Fatal("no fingerprints recorded")
		}
		if len(got[0]) != len(got[1]) {
			t.Fatalf("fingerprint counts differ: seq %d, goroutine %d", len(got[0]), len(got[1]))
		}
		for i := range got[0] {
			if got[0][i] != got[1][i] {
				t.Fatalf("fingerprint %d differs: seq %x, goroutine %x", i, got[0][i], got[1][i])
			}
		}
	}

	t.Run("registers", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			runBoth(t, 3, seed, func(gate sched.Stepper) (func(pid int), func(*maphash.Hash)) {
				regs := []*shmem.Register{
					shmem.NewRegister("A", gate, nil),
					shmem.NewRegister("B", gate, 0),
				}
				body := func(pid int) {
					for i := 0; i < 4; i++ {
						regs[i%2].Write(pid, pid*10+i)
						regs[(i+1)%2].Read(pid)
					}
				}
				return body, func(h *maphash.Hash) {
					for _, r := range regs {
						r.AppendFingerprint(h)
					}
				}
			})
		}
	})

	t.Run("augsnap", func(t *testing.T) {
		const f, m, ops = 3, 2, 4
		for seed := int64(0); seed < 4; seed++ {
			runBoth(t, f, seed, func(gate sched.Stepper) (func(pid int), func(*maphash.Hash)) {
				a := augsnap.New(gate, f, m)
				body := func(pid int) {
					rng := rand.New(rand.NewSource(seed*1000 + int64(pid)))
					for i := 0; i < ops; i++ {
						if rng.Intn(3) == 0 {
							a.Scan(pid)
							continue
						}
						a.BlockUpdate(pid, []int{rng.Intn(m)}, []augsnap.Value{fmt.Sprintf("p%d-%d", pid, i)})
					}
				}
				return body, a.AppendFingerprint
			})
		}
	})
}
