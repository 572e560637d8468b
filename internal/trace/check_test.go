package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"revisionist/internal/augsnap"
	"revisionist/internal/sched"
)

// runAugWorkload drives f processes over an m-component augmented snapshot
// with mixed operations under the given strategy and returns the log.
func runAugWorkload(t *testing.T, f, m, opsPer int, seed int64, strat sched.Strategy) *augsnap.AugSnapshot {
	t.Helper()
	runner := sched.NewRunner(f, strat, sched.WithMaxSteps(1<<22))
	a := augsnap.New(runner, f, m)
	_, err := runner.Run(func(pid int) {
		rng := rand.New(rand.NewSource(seed*7919 + int64(pid)))
		for i := 0; i < opsPer; i++ {
			switch rng.Intn(4) {
			case 0:
				a.Scan(pid)
			default:
				r := 1 + rng.Intn(m)
				comps := rng.Perm(m)[:r]
				vals := make([]augsnap.Value, r)
				for g := range vals {
					vals[g] = fmt.Sprintf("p%d-i%d-g%d", pid, i, g)
				}
				a.BlockUpdate(pid, comps, vals)
			}
		}
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return a
}

func TestAugSnapshotSpecRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		a := runAugWorkload(t, 3, 3, 8, seed, sched.NewRandom(seed))
		if err := Check(a.Log(), 3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAugSnapshotSpecMoreProcesses(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		a := runAugWorkload(t, 5, 4, 6, seed, sched.NewRandom(seed+1000))
		if err := Check(a.Log(), 4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAugSnapshotSpecAdversarialStrategies(t *testing.T) {
	strategies := map[string]func() sched.Strategy{
		"lowest":      func() sched.Strategy { return sched.Lowest{} },
		"highest":     func() sched.Strategy { return sched.Highest{} },
		"alternate1":  func() sched.Strategy { return sched.Alternator{Burst: 1} },
		"alternate3":  func() sched.Strategy { return sched.Alternator{Burst: 3} },
		"alternate17": func() sched.Strategy { return sched.Alternator{Burst: 17} },
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				a := runAugWorkload(t, 4, 3, 6, seed, mk())
				if err := Check(a.Log(), 3); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestAugSnapshotSpecExhaustiveTiny(t *testing.T) {
	// Exhaustively explore all schedules (bounded) of 2 processes each doing
	// one Block-Update and one Scan over a 2-component augmented snapshot,
	// checking the full §3 specification after every run.
	factory := func(runner sched.Stepper) System {
		a := augsnap.New(runner, 2, 2)
		return System{
			Body: func(pid int) {
				a.BlockUpdate(pid, []int{pid, 1 - pid}, []augsnap.Value{pid * 10, pid*10 + 1})
				a.Scan(pid)
			},
			Check: func(*sched.Result) error {
				return Check(a.Log(), 2)
			},
		}
	}
	for _, w := range testWorkers {
		rep, err := Explore(2, factory, ExploreOpts{MaxDepth: 40, MaxRuns: 30_000, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) > 0 {
			v := rep.Violations[0]
			t.Fatalf("workers=%d: spec violated on schedule %v: %v", w, v.Schedule, v.Err)
		}
		t.Logf("workers=%d: explored %d schedules (truncated %d, exhausted %v)", w, rep.Runs, rep.Truncated, rep.Exhausted)
	}
}

func TestLinearizeOrdersYieldedUpdates(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := runAugWorkload(t, 3, 2, 6, seed, sched.NewRandom(seed+99))
		ops, err := Linearize(a.Log(), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ops); i++ {
			if ops[i].Seq < ops[i-1].Seq {
				t.Fatal("linearization not sorted by seq")
			}
		}
	}
}

func TestReplayTracksUpdates(t *testing.T) {
	ops := []MOp{
		{Seq: 1, Comp: 0, Val: "a"},
		{Seq: 2, IsScan: true},
		{Seq: 3, Comp: 1, Val: "b"},
	}
	states := Replay(ops, 2)
	if len(states) != 4 {
		t.Fatalf("states = %d", len(states))
	}
	if states[0][0] != nil || states[1][0] != "a" || states[3][1] != "b" {
		t.Fatalf("replay wrong: %v", states)
	}
}
