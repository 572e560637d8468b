package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/jobd/crashfs"
)

// Small catalog entries with their expected answers (modelcheck at the
// seed), so the tests exercise every path in well under a second per job.
var (
	smallPrune = entry{"firstvalue n=3 d20 prune", pruned(opts("firstvalue", 3, 0, 20)),
		answer{Runs: 213, Pruned: 77, Distinct: 219, Exhausted: true}}
	smallSymmetry = entry{"firstvalue n=3 d20 symmetry", symmetric(opts("firstvalue", 3, 0, 20)),
		answer{Runs: 125, Pruned: 85, Distinct: 40, Exhausted: true}}
	smallViolating = entry{"firstvalue-consensus n=3 d14 prune maxviol=3", violating(pruned(opts("firstvalue-consensus", 3, 0, 14)), 3),
		answer{Runs: 9, Distinct: 9, Violations: firstvalueConsensusViolations}}
)

func testConfig(t *testing.T, w *workload, traced bool) config {
	return config{w: w, seed: 1, seconds: 0, traced: traced, workers: 2, clients: 2,
		poll: time.Millisecond, scratch: t.TempDir()}
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

func TestWrongExpectedAnswerFails(t *testing.T) {
	wrong := smallPrune
	wrong.Want.Distinct++
	w := &workload{Name: "test", Catalog: []entry{smallPrune, wrong}}
	res, detail, err := run(testConfig(t, w, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed*2 != res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want half the jobs failed", res.Correct, res.Failed, res.Attempted)
	}
	if share := detail["failed_share"].(float64); share != 0.5 {
		t.Errorf("failed_share = %v, want 0.5", share)
	}
	if v := res.Metrics["verified_share"].Value; v != 0.5 {
		t.Errorf("verified_share = %v, want 0.5", v)
	}
}

func TestServiceFailsOnWrongWitness(t *testing.T) {
	wrong := smallViolating
	wrong.Want.Violations = slices.Clone(wrong.Want.Violations)
	wrong.Want.Violations[0] = []int{1, 0, 1, 1, 0, 0, 2}
	s, err := startService([]entry{smallViolating, wrong}, t.TempDir(), 1, 1, time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := s.pass([]int{0, 1}, &timeline{workers: 1})
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
	if outs[0].err != nil {
		t.Errorf("correct expectation failed: %v", outs[0].err)
	}
	if outs[1].err == nil {
		t.Error("wrong violating schedule accepted")
	}
}

// TestTracedReportsMatchUntraced: the taps are pass-throughs, so a traced
// search reports exactly what harness.Check reports, and the taps see work.
func TestTracedReportsMatchUntraced(t *testing.T) {
	for _, e := range []entry{smallPrune, smallSymmetry} {
		plain := &inProcess{catalog: []entry{e}, workers: 2}
		traced := &inProcess{catalog: []entry{e}, workers: 2, tap: &searchTap{}}
		a, b := plain.run(0), traced.run(0)
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: plain err %v, traced err %v", e.Name, a.err, b.err)
		}
		if !reflect.DeepEqual(a.rep, b.rep) {
			t.Errorf("%s: traced report %+v differs from %+v", e.Name, b.rep, a.rep)
		}
		tap := traced.tap
		hashes := tap.fingerprint.calls.Load() + tap.canonical.calls.Load()
		if tap.factory.calls.Load() == 0 || tap.validate.calls.Load() == 0 || tap.fork.calls.Load() == 0 || hashes == 0 || b.waves == 0 {
			t.Errorf("%s: taps saw no work: factory %d validate %d fork %d hashes %d waves %d", e.Name,
				tap.factory.calls.Load(), tap.validate.calls.Load(), tap.fork.calls.Load(), hashes, b.waves)
		}
	}
}

func TestFSTapPassesThrough(t *testing.T) {
	mem := crashfs.NewMem()
	fs := &fsTap{fs: mem}
	f, err := fs.Create("j.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Rename("j.tmp", "j"); err != nil {
		t.Fatal(err)
	}
	if got := string(mem.Durable("j")); got != "abc" {
		t.Errorf("durable content %q, want abc", got)
	}
	r, err := fs.Open("j")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(r); string(got) != "abc" {
		t.Errorf("read back %q, want abc", got)
	}
	if fs.write.calls.Load() != 1 || fs.bytes.Load() != 3 || fs.sync.calls.Load() != 1 || fs.rename.Load() != 1 {
		t.Errorf("counted writes %d (%d B), syncs %d, renames %d; want 1 (3 B), 1, 1",
			fs.write.calls.Load(), fs.bytes.Load(), fs.sync.calls.Load(), fs.rename.Load())
	}
}

func TestWireTapPassesThrough(t *testing.T) {
	tap := newWireTap(true)
	near, far := net.Pipe()
	sent := []*wire.Msg{
		{Kind: wire.KindHello, Hello: &wire.Hello{Version: wire.Version, Slots: 1}},
		{Kind: wire.KindResult, Result: &wire.Result{Job: "j1", ID: 3}},
		{Kind: wire.KindPong},
	}
	tapped := tap.conn(near)
	go func() {
		c := wire.NewConn(tapped)
		for _, m := range sent {
			c.Send(m)
		}
		tapped.Close()
	}()
	rc := wire.NewConn(far)
	for _, want := range sent {
		got, err := rc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("received %+v, sent %+v", got, want)
		}
	}
	if _, err := rc.Recv(); err == nil {
		t.Fatal("connection still open after Close")
	}
	stats := tap.kindStats()
	var frames, size int64
	for _, k := range []string{wire.KindHello, wire.KindResult, wire.KindPong} {
		frames += stats[k].frames
		size += stats[k].bytes
	}
	if frames != 3 || size != tap.bytesOut.Load() || tap.write.calls.Load() != 6 {
		t.Errorf("counted %d frames of %d B (wrote %d B in %d writes), want 3 frames of all bytes in 6 writes",
			frames, size, tap.bytesOut.Load(), tap.write.calls.Load())
	}
	dec, enc, err := tap.replayCost()
	if err != nil {
		t.Fatal(err)
	}
	if dec[wire.KindResult] <= 0 || enc[wire.KindResult] <= 0 {
		t.Errorf("replay measured no decode/encode cost for result frames: %v %v", dec, enc)
	}
}

func TestFrameKind(t *testing.T) {
	cases := map[string]string{
		`{"Kind":"lease","Lease":{}}`: wire.KindLease,
		`{"Kind":"submit"}`:           "other",
		`not json`:                    "other",
		`{"Kind":"hel`:                "other",
	}
	for body, want := range cases {
		if got := frameKind([]byte(body)); got != want {
			t.Errorf("frameKind(%s) = %q, want %q", body, got, want)
		}
	}
}

// TestMetricsMatchBenchmarkDefinition runs small catalogs end to end and
// checks that the untraced run prints exactly the end-to-end metrics of
// BENCHMARK.json and the traced runs exactly its per-layer metrics.
func TestMetricsMatchBenchmarkDefinition(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		out := make([]string, len(list))
		for i, m := range list {
			out[i] = m.Name
		}
		slices.Sort(out)
		return out
	}
	small := []entry{smallPrune, smallSymmetry, smallViolating}
	cases := []struct {
		w      *workload
		traced bool
		want   []string
	}{
		{&workload{Name: "in-process", Catalog: small}, false, names(def.EndToEnd)},
		{&workload{Name: "service", Service: true, Catalog: small}, false, names(def.EndToEnd)},
		{&workload{Name: "in-process", Catalog: small}, true, names(def.PerLayer)},
		{&workload{Name: "service", Service: true, Catalog: small}, true, names(def.PerLayer)},
	}
	for _, c := range cases {
		res, detail, err := run(testConfig(t, c.w, c.traced))
		if err != nil {
			t.Fatalf("%s traced=%v: %v", c.w.Name, c.traced, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced=%v: failed %d of %d: %v", c.w.Name, c.traced, res.Failed, res.Attempted, detail["errors"])
		}
		if got := metricNames(res.Metrics); !slices.Equal(got, c.want) {
			t.Errorf("%s traced=%v prints metrics\n%v\nwant\n%v", c.w.Name, c.traced, got, c.want)
		}
	}
}

// Keep the expected answers honest: every catalog entry must resolve to a
// valid job, and no two entries of a workload share a name.
func TestCatalogsResolve(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]bool{}
		for _, e := range w.Catalog {
			if seen[e.Name] {
				t.Errorf("%s: duplicate entry %q", w.Name, e.Name)
			}
			seen[e.Name] = true
			job, err := harness.CheckJob(e.Opts)
			if err != nil {
				t.Errorf("%s/%s: %v", w.Name, e.Name, err)
				continue
			}
			if _, err := harness.ValidateJob(job); err != nil {
				t.Errorf("%s/%s: %v", w.Name, e.Name, err)
			}
		}
	}
}
