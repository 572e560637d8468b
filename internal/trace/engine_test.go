package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"revisionist/internal/augsnap"
	"revisionist/internal/sched"
)

// TestExploreIdenticalAcrossEngines: the DFS over schedules must visit the
// same tree (same run count, truncation count and violations) on both
// engines — exploration semantics are engine-independent.
func TestExploreIdenticalAcrossEngines(t *testing.T) {
	for _, w := range testWorkers {
		for _, mkOpts := range []ExploreOpts{
			{MaxDepth: 10, Workers: w},
			{MaxDepth: 10, MaxViolations: 10, Workers: w},
		} {
			g := mkOpts
			g.Engine = sched.EngineGoroutine
			s := mkOpts
			s.Engine = sched.EngineSeq
			grep, err := Explore(2, counterSystem(1), g)
			if err != nil {
				t.Fatal(err)
			}
			srep, err := Explore(2, counterSystem(1), s)
			if err != nil {
				t.Fatal(err)
			}
			if grep.Runs != srep.Runs || grep.Truncated != srep.Truncated || grep.Exhausted != srep.Exhausted {
				t.Fatalf("workers=%d: reports differ: goroutine %+v, seq %+v", w, grep, srep)
			}
			if len(grep.Violations) != len(srep.Violations) {
				t.Fatalf("workers=%d: violation counts differ: %d vs %d", w, len(grep.Violations), len(srep.Violations))
			}
			for i := range grep.Violations {
				if !reflect.DeepEqual(grep.Violations[i].Schedule, srep.Violations[i].Schedule) {
					t.Fatalf("workers=%d: violation %d schedules differ: %v vs %v", w, i, grep.Violations[i].Schedule, srep.Violations[i].Schedule)
				}
			}
		}
	}
}

// TestFuzzIdenticalAcrossEngines: hill-climbing is deterministic per seed, so
// the search must find the same best schedule and score on both engines.
func TestFuzzIdenticalAcrossEngines(t *testing.T) {
	steps := func(res *sched.Result) float64 { return float64(res.Steps) }
	run := func(kind sched.EngineKind) *FuzzReport {
		rep, err := Fuzz(2, paxosLikeSystem, steps,
			FuzzOpts{Iterations: 60, Seed: 11, ScheduleLen: 24, MaxSteps: 5000, Engine: kind})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	g := run(sched.EngineGoroutine)
	s := run(sched.EngineSeq)
	if g.BestScore != s.BestScore || !reflect.DeepEqual(g.BestSchedule, s.BestSchedule) {
		t.Fatalf("fuzz reports differ: goroutine %v (%v), seq %v (%v)", g.BestScore, g.BestSchedule, s.BestScore, s.BestSchedule)
	}
}

// TestAugWorkloadTraceIdenticalAcrossEngines drives the step-heaviest object
// (the augmented snapshot, several H-steps per operation with helping in
// between) under both engines and requires byte-identical step traces and
// H-histories.
func TestAugWorkloadTraceIdenticalAcrossEngines(t *testing.T) {
	const f, m, ops = 4, 3, 6
	workload := func(a *augsnap.AugSnapshot, seed int64) func(pid int) {
		return func(pid int) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(pid)))
			for i := 0; i < ops; i++ {
				if rng.Intn(4) == 0 {
					a.Scan(pid)
					continue
				}
				r := 1 + rng.Intn(m)
				comps := rng.Perm(m)[:r]
				vals := make([]augsnap.Value, r)
				for g := range vals {
					vals[g] = fmt.Sprintf("p%d-%d-%d", pid, i, g)
				}
				a.BlockUpdate(pid, comps, vals)
			}
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		run := func(kind sched.EngineKind) (*sched.Result, *augsnap.AugSnapshot) {
			eng, err := sched.NewEngine(kind, f, sched.NewRandom(seed), sched.WithMaxSteps(1<<22))
			if err != nil {
				t.Fatal(err)
			}
			a := augsnap.New(eng, f, m)
			res, rerr := eng.Run(workload(a, seed))
			if rerr != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, rerr)
			}
			return res, a
		}
		gres, ga := run(sched.EngineGoroutine)
		sres, sa := run(sched.EngineSeq)
		if !reflect.DeepEqual(gres.Trace, sres.Trace) {
			t.Fatalf("seed %d: step traces differ", seed)
		}
		if !reflect.DeepEqual(ga.Log().Events, sa.Log().Events) {
			t.Fatalf("seed %d: H-histories differ", seed)
		}
		if err := Check(sa.Log(), m); err != nil {
			t.Fatalf("seed %d: seq-engine run violates the §3 spec: %v", seed, err)
		}
	}
}
