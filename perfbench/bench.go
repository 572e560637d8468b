package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"
)

// minJobs is the job count an untraced run attempts at least, so that
// minBeyond verdicts lie beyond its p90 when every job succeeds.
const minJobs = 100

// hardStop bounds a run's measuring time whatever the sample count, so the
// process ends well within its time limit even on a much slower build.
const hardStop = 140 * time.Second

// config is one benchmark invocation.
type config struct {
	w       *workload
	seed    uint64
	seconds int
	traced  bool
	workers int           // in-process search workers; daemon worker connections
	clients int           // closed-loop daemon clients
	poll    time.Duration // daemon status poll interval
	scratch string        // directory for journals, inside the checkout
	// probe, when set, is one in-process set-up: main starts a fresh
	// process that resolves the catalog, so set-up covers what a modelcheck
	// user waits for before the first search. nil resolves in this process.
	probe func() error
}

// setupRounds is how many set-ups an untraced run times; it reports the
// median.
const setupRounds = 15

// passer runs a catalog once in a given order. It returns the pass's timed
// spans, and takes any reference timings the pass needs inside it on tl.
type passer interface {
	pass(order []int, tl *timeline) ([]outcome, []span)
}

// mode is one way of running the catalog within a run.
type mode struct {
	name   string
	p      passer
	outs   []outcome
	passes []passStat
}

// passStat is one pass of a mode through the catalog. Times exclude the
// reference timings; the scaled ones are at the reference speed.
type passStat struct {
	spans                 []span  // its timed stretches, rescaled after the run
	wall, cpu             float64 // seconds
	scaledWall, scaledCPU float64 // seconds at the reference speed
	jobs                  int     // attempted
	verified              int
	runs                  int     // credited schedules of the verified reports
	peakMB                float64 // peak resident set during the pass
}

// rescale fills in every time of the mode at the reference speed, once
// the timeline holds the reference timings after its last pass too.
func (m *mode) rescale(tl *timeline) {
	for i := range m.outs {
		o := &m.outs[i]
		o.scaled = o.secs * tl.around(o.start, o.end).wallScale()
	}
	for i := range m.passes {
		p := &m.passes[i]
		for _, sp := range p.spans {
			wall, cpu := tl.rescale(sp)
			p.wall += sp.wall
			p.cpu += sp.cpu
			p.scaledWall += wall
			p.scaledCPU += cpu
		}
	}
}

// verified returns the verdict times of the jobs that passed, at the
// reference speed, or as measured when raw is set.
func (m *mode) verified(raw bool) []float64 {
	var secs []float64
	for _, o := range m.outs {
		if o.err == nil {
			if raw {
				secs = append(secs, o.secs)
			} else {
				secs = append(secs, o.scaled)
			}
		}
	}
	return secs
}

// p50 is the median verdict time at the reference speed.
func (m *mode) p50() float64 {
	return median(m.verified(false))
}

// measure runs one untimed warm-up round, then rounds until the time is up
// and primary (modes[0]) has attempted at least need jobs. A round runs
// every mode once over the same shuffled catalog order, so modes alternate
// and share any drift of the machine, and every mode always runs whole
// catalog passes. Each pass starts from a collected heap and records its
// own resident-set peak. The reference is timed before every pass and
// after the last, and every time is rescaled once the passes are done. The
// warm-up fills the caches, the heap and the daemon's connections the way a
// long-running checker has them; its verdicts are checked too.
func measure(modes []*mode, catalog int, rng *rand.Rand, seconds time.Duration, need, workers int) (warmup []outcome) {
	tl := &timeline{workers: workers}
	order := rng.Perm(catalog)
	for _, m := range modes {
		outs, _ := m.p.pass(order, tl)
		warmup = append(warmup, outs...)
	}
	start := time.Now()
	defer func() {
		tl.take()
		for _, m := range modes {
			m.rescale(tl)
		}
	}()
	for {
		order := rng.Perm(catalog)
		for _, m := range modes {
			tl.take()
			resetPeakRSS()
			outs, spans := m.p.pass(order, tl)
			ps := passStat{spans: spans, jobs: len(outs), peakMB: peakRSSMB()}
			for _, o := range outs {
				if o.err == nil {
					ps.verified++
					ps.runs += o.rep.Runs
				}
			}
			m.outs = append(m.outs, outs...)
			m.passes = append(m.passes, ps)
		}
		elapsed := time.Since(start)
		if elapsed >= hardStop || elapsed >= seconds && len(modes[0].outs) >= need {
			return warmup
		}
	}
}

// timeSetup times rounds set-ups and returns their median duration at the
// reference speed, with the reference timed on workers goroutines between
// every two set-ups, and the median as measured. Each set-up returns how to
// undo it (nil: nothing to undo); every round but the last is undone again,
// outside the timed part.
func timeSetup(rounds, workers int, setup func() (undo func() error, err error)) (scaled, raw float64, err error) {
	tl := &timeline{workers: workers}
	spans := make([]span, 0, rounds)
	for i := range rounds {
		tl.take()
		start := time.Now()
		undo, err := setup()
		if err != nil {
			return 0, 0, err
		}
		end := time.Now()
		spans = append(spans, span{start: start, end: end, wall: end.Sub(start).Seconds()})
		if undo != nil && i < rounds-1 {
			if err := undo(); err != nil {
				return 0, 0, err
			}
		}
	}
	tl.take()
	scaledDurs, durs := make([]float64, rounds), make([]float64, rounds)
	for i, sp := range spans {
		durs[i] = sp.wall
		scaledDurs[i], _ = tl.rescale(sp)
	}
	return median(scaledDurs), median(durs), nil
}

// run executes one benchmark run and returns its result and the details
// recorded next to it.
func run(cfg config) (*result, map[string]any, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)
	rng := rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15))
	cat := cfg.w.Catalog
	seconds := time.Duration(cfg.seconds) * time.Second
	need := minJobs
	if cfg.traced {
		need = 0
	}

	var modes []*mode
	var setupS, setupRaw float64
	var svcs []*service
	defer func() {
		for _, s := range svcs {
			s.stop()
		}
	}()
	startSvc := func(name string, traced bool) (*service, error) {
		s, err := startService(cat, filepath.Join(scratch, name), cfg.workers, cfg.clients, cfg.poll, traced)
		if err == nil {
			svcs = append(svcs, s)
		}
		return s, err
	}

	// Untraced runs time set-up several times and report the median; a
	// traced run sets up once.
	rounds := 1
	if !cfg.traced {
		rounds = setupRounds
	}
	if cfg.w.Service {
		n := 0
		setupS, setupRaw, err = timeSetup(rounds, cfg.workers, func() (func() error, error) {
			n++
			s, err := startSvc(fmt.Sprintf("journal-%d", n), false)
			if err != nil {
				return nil, err
			}
			return func() error {
				svcs = svcs[:len(svcs)-1]
				return s.stop()
			}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		modes = append(modes, &mode{name: "service", p: svcs[0]})
	} else {
		p := &inProcess{catalog: cat, workers: cfg.workers}
		probe := cfg.probe
		if probe == nil {
			probe = func() error { return p.setup() }
		}
		if setupS, setupRaw, err = timeSetup(rounds, cfg.workers, func() (func() error, error) { return nil, probe() }); err != nil {
			return nil, nil, err
		}
		modes = append(modes, &mode{name: "in-process", p: p})
	}

	var tracedMode, inprocMode *mode
	if cfg.traced {
		if cfg.w.Service {
			s, err := startSvc("journal-traced", true)
			if err != nil {
				return nil, nil, err
			}
			tracedMode = &mode{name: "service-traced", p: s}
			inprocMode = &mode{name: "in-process", p: &inProcess{catalog: cat, workers: cfg.workers}}
			modes = append(modes, tracedMode, inprocMode)
		} else {
			tracedMode = &mode{name: "in-process-traced", p: &inProcess{catalog: cat, workers: cfg.workers, tap: &searchTap{}}}
			modes = append(modes, tracedMode)
		}
	}

	steal0, total0 := cpuSteal()
	warmup := measure(modes, len(cat), rng, seconds, need, cfg.workers)
	steal1, total1 := cpuSteal()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var errs []string
	count := func(name string, outs []outcome) {
		for _, o := range outs {
			res.Attempted++
			if o.err != nil {
				res.Failed++
				res.Correct = false
				if len(errs) < 10 {
					errs = append(errs, fmt.Sprintf("%s: %v", name, o.err))
				}
			}
		}
	}
	count("warm-up", warmup)
	for _, m := range modes {
		count(m.name, m.outs)
	}
	// The share of CPU time the hypervisor gave to other guests while the
	// run measured: on a shared host, the first suspect when runs disagree.
	detail := map[string]any{"errors": errs, "steal_share": ratio(float64(steal1-steal0), float64(total1-total0))}
	primary := modes[0]
	if !cfg.traced {
		endToEnd(res, detail, primary, setupS)
		detail["setup_s_raw"] = setupRaw
	} else {
		// Stop the traced daemon first so its teardown traffic is counted.
		for _, s := range svcs {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		svcs = nil
		if err := perLayer(res, detail, cfg, primary, tracedMode, inprocMode); err != nil {
			return nil, nil, err
		}
	}
	for _, m := range modes {
		secs := m.verified(true)
		detail[m.name+".verdicts"] = len(secs)
		detail[m.name+".p50_s_raw"] = median(secs)
		detail[m.name+".p50_s"] = m.p50()
	}
	perEntry := map[string]float64{}
	for i, e := range cat {
		var secs []float64
		for _, o := range primary.outs {
			if o.entry == i && o.err == nil {
				secs = append(secs, o.scaled)
			}
		}
		perEntry[e.Name] = median(secs)
	}
	detail["entry_p50_s"] = perEntry
	return res, detail, nil
}

// endToEnd fills the untraced metrics from the primary mode. Every time,
// and every rate, is at the reference speed (speed.go); the raw figures go
// to detail. Latencies are percentiles of all verdicts; rates and CPU are
// medians over passes, so a burst of machine noise moves them less than a
// total would. Memory is the mean of the passes' peaks: a pass's peak
// depends on where the collector happened to run and on which service
// jobs overlapped, so the per-pass peaks fall into clusters, and a median
// would jump between them from run to run.
func endToEnd(res *result, detail map[string]any, m *mode, setupS float64) {
	secs := m.verified(false)
	p90, beyond, ok := percentile(secs, 0.9)
	res.put("verdict_s_p50", median(secs), "s")
	if ok {
		res.put("verdict_s_p90", p90, "s")
	}
	perPass := func(f func(p passStat) float64) float64 {
		v := make([]float64, len(m.passes))
		for i, p := range m.passes {
			v[i] = f(p)
		}
		return median(v)
	}
	res.put("jobs_per_s", perPass(func(p passStat) float64 { return float64(p.verified) / p.scaledWall }), "1/s")
	res.put("runs_per_s", perPass(func(p passStat) float64 { return float64(p.runs) / p.scaledWall }), "1/s")
	res.put("cpu_s_per_job", perPass(func(p passStat) float64 { return p.scaledCPU / float64(p.jobs) }), "s")
	peaks := make([]float64, len(m.passes))
	for i, p := range m.passes {
		peaks[i] = p.peakMB
	}
	res.put("peak_rss_mb", mean(peaks), "MB")
	res.put("verified_share", float64(len(secs))/float64(len(m.outs)), "ratio")
	res.put("setup_s", setupS, "s")
	detail["verdict_samples"] = len(secs)
	detail["p90_samples_beyond"] = beyond
	detail["failed_share"] = float64(len(m.outs)-len(secs)) / float64(len(m.outs))
	detail["passes"] = len(m.passes)
	q1, q2, q3 := quartiles(peaks)
	detail["peak_rss_mb_quartiles"] = []float64{q1, q2, q3}
	raw := m.verified(true)
	detail["verdict_s_p50_raw"] = median(raw)
	detail["jobs_per_s_raw"] = perPass(func(p passStat) float64 { return float64(p.verified) / p.wall })
	detail["cpu_s_per_job_raw"] = perPass(func(p passStat) float64 { return p.cpu / float64(p.jobs) })
	// How much slower than nominal the host ran, pass by pass.
	detail["slowdown"] = perPass(func(p passStat) float64 { return ratio(p.wall, p.scaledWall) })
}
