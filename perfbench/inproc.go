package main

import (
	"fmt"
	"runtime"
	"time"

	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/obs"
	"revisionist/internal/trace"
)

// outcome is one finished job of a closed loop.
type outcome struct {
	entry int
	secs  float64 // call to verified report, wall time
	// scaled is secs at the reference speed (speed.go), filled in after the
	// run from the reference timings around [start, end].
	scaled     float64
	start, end time.Time
	rep        *wire.Report
	waves      int64 // wave barriers the job crossed (traced runs only)
	err        error // failed, rejected, or a verdict other than expected
}

// inProcess drives a catalog through harness.Check in this process, one
// job at a time, each search on the given number of workers.
type inProcess struct {
	catalog []entry
	workers int
	tap     *searchTap // nil: untraced
}

// setup resolves every catalog entry through the protocol registry, which
// is the only work an in-process check does before its first search.
func (p *inProcess) setup() error {
	for _, e := range p.catalog {
		job, err := harness.CheckJob(p.options(e))
		if err != nil {
			return err
		}
		if _, _, err := harness.Resolve(job); err != nil {
			return err
		}
	}
	return nil
}

func (p *inProcess) options(e entry) harness.Options {
	o := e.Opts
	o.Workers = p.workers
	return o
}

// pass runs the catalog once in the given order, timing the reference
// between every two jobs. Jobs run one at a time, so each job is a span of
// its own and the pass's time and CPU are those of its jobs.
func (p *inProcess) pass(order []int, tl *timeline) ([]outcome, []span) {
	out := make([]outcome, 0, len(order))
	spans := make([]span, 0, len(order))
	for k, i := range order {
		if k > 0 {
			tl.take()
		}
		c0 := cpuTime()
		o := p.run(i)
		out = append(out, o)
		spans = append(spans, span{o.start, o.end, o.secs, (cpuTime() - c0).Seconds()})
	}
	return out, spans
}

// run checks one entry. Like a modelcheck process, every job starts on a
// collected heap: the collection happens before the clock starts.
func (p *inProcess) run(i int) outcome {
	e := p.catalog[i]
	runtime.GC()
	start := time.Now()
	var rep *trace.ExploreReport
	var waves int64
	var err error
	if p.tap == nil {
		var cr *harness.CheckReport
		if cr, err = harness.Check(p.options(e)); err == nil {
			rep = cr.Explore
		}
	} else {
		rep, waves, err = p.traced(e)
	}
	end := time.Now()
	o := outcome{entry: i, secs: end.Sub(start).Seconds(), start: start, end: end, waves: waves}
	if err != nil {
		o.err = fmt.Errorf("%s: %w", e.Name, err)
		return o
	}
	o.rep = wire.ReportOf(rep)
	if err := e.Want.verify(o.rep); err != nil {
		o.err = fmt.Errorf("%s: %w", e.Name, err)
	}
	return o
}

// traced runs the same search harness.Check runs — the registry's factory
// under the job's exploration options — with the factory and system hooks
// tapped, and counts the wave barriers through a private search registry.
func (p *inProcess) traced(e entry) (*trace.ExploreReport, int64, error) {
	job, err := harness.CheckJob(p.options(e))
	if err != nil {
		return nil, 0, err
	}
	n, factory, err := harness.Resolve(job)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.NewRegistry()
	job.Opts.Obs = trace.NewSearchObs(reg)
	rep, err := trace.Explore(n, p.tap.wrapFactory(factory), job.Opts)
	return rep, reg.Counter("search_waves_total", "").Value(), err
}
