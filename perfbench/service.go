package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/harness"
	"revisionist/internal/jobd"
	"revisionist/internal/jobd/crashfs"
	"revisionist/internal/obs"
)

// service is one checking daemon with its journal on disk, worker
// connections over loopback TCP and closed-loop clients, all in this
// process.
type service struct {
	catalog []entry
	poll    time.Duration
	dir     string

	ln        net.Listener
	cancel    context.CancelFunc
	runDone   chan error
	serveDone chan struct{}
	workers   sync.WaitGroup
	clients   []*client

	// Taps; all nil when untraced.
	search  *searchTap
	fs      *fsTap
	wireW   *wireTap // worker connections, worker side
	wireD   *wireTap // every connection, daemon side
	reg     *obs.Registry
	clientN clientCounters
}

// client is one closed-loop submitter with its own connection.
type client struct {
	cl  *jobd.Client
	tap *wireTap // nil when untraced
}

// clientCounters are the jobd.Client calls of the traced clients.
type clientCounters struct {
	submit, fetch, queued busy
	polls, reportBytes    atomic.Int64
}

// startService starts a daemon journaling to dir, connects workers workers
// of one slot each and waits until the fleet has registered them, then
// dials clients clients.
func startService(catalog []entry, dir string, workers, clients int, poll time.Duration, traced bool) (*service, error) {
	s := &service{catalog: catalog, poll: poll, dir: dir}
	resolve := harness.Resolve
	cfg := jobd.Config{Dir: dir, MaxActive: clients, Resolve: resolve, Validate: harness.ValidateJob}
	if traced {
		s.search, s.fs = &searchTap{}, &fsTap{fs: crashfs.OS}
		s.wireW, s.wireD = newWireTap(true), newWireTap(false)
		s.reg = obs.NewRegistry()
		resolve = s.search.resolver(harness.Resolve)
		cfg.Resolve, cfg.FS, cfg.Registry = resolve, s.fs, s.reg
	}
	d, err := jobd.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	addr := ln.Addr().String()
	if traced {
		ln = s.wireD.listener(ln)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.ln, s.cancel = ln, cancel
	s.runDone, s.serveDone = make(chan error, 1), make(chan struct{})
	go func() { s.runDone <- d.Run(ctx) }()
	go func() { defer close(s.serveDone); d.Serve(ln) }()

	fail := func(err error) (*service, error) {
		s.stop()
		return nil, err
	}
	for range workers {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fail(fmt.Errorf("dial worker: %w", err))
		}
		if traced {
			conn = s.wireW.conn(conn)
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			dist.Work(ctx, conn, 1, resolve)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Workers < workers {
		if time.Now().After(deadline) {
			return fail(errors.New("workers did not register within 10s"))
		}
		time.Sleep(100 * time.Microsecond)
	}
	for range clients {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fail(fmt.Errorf("dial client: %w", err))
		}
		c := &client{}
		if traced {
			c.tap = newWireTap(false)
			conn = c.tap.conn(conn)
		}
		c.cl = jobd.NewClient(conn)
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// stop shuts everything down, waits for every goroutine it started, and
// removes the journal.
func (s *service) stop() error {
	for _, c := range s.clients {
		c.cl.Close()
	}
	s.cancel()
	err := <-s.runDone
	s.ln.Close()
	<-s.serveDone
	s.workers.Wait()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// pass runs the catalog once: every client takes the next job in order
// as soon as its previous verdict is back, until the order is used up.
// Jobs overlap, so the whole pass is one span.
func (s *service) pass(order []int, _ *timeline) ([]outcome, []span) {
	out := make([]outcome, len(order))
	t0, c0 := time.Now(), cpuTime()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				out[k] = s.run(c, order[k])
			}
		}()
	}
	wg.Wait()
	t1 := time.Now()
	return out, []span{{t0, t1, t1.Sub(t0).Seconds(), (cpuTime() - c0).Seconds()}}
}

// run submits one job, polls its status at the fixed interval until it
// finishes, fetches the artifact and verifies report and witness.
func (s *service) run(c *client, i int) outcome {
	e := s.catalog[i]
	o := outcome{entry: i}
	fail := func(err error) outcome {
		o.err = fmt.Errorf("%s: %w", e.Name, err)
		return o
	}
	job, err := harness.CheckJob(e.Opts)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	ack, err := c.cl.Submit(job)
	submitted := time.Now()
	if err != nil {
		return fail(err)
	}
	if ack.Err != "" {
		return fail(fmt.Errorf("submission rejected: %s", ack.Err))
	}
	var polls int64
	var started time.Time
	for done := false; !done; {
		time.Sleep(s.poll)
		info, err := c.cl.Status(ack.ID)
		polls++
		if err != nil {
			return fail(err)
		}
		switch jobd.JobState(info.State) {
		case jobd.StateQueued:
		case jobd.StateRunning:
			if started.IsZero() {
				started = time.Now()
			}
		case jobd.StateDone:
			if started.IsZero() {
				started = time.Now()
			}
			done = true
		default:
			return fail(fmt.Errorf("job ended %s: %s", info.State, info.Err))
		}
	}
	fetchStart := time.Now()
	var inBefore int64
	if c.tap != nil {
		inBefore = c.tap.bytesIn.Load()
	}
	rep, err := c.cl.Fetch(ack.ID)
	if err != nil {
		return fail(err)
	}
	o.start, o.end = start, time.Now()
	o.secs = o.end.Sub(start).Seconds()
	if c.tap != nil {
		n := &s.clientN
		n.submit.add(submitted.Sub(start))
		n.queued.add(started.Sub(submitted))
		n.fetch.done(fetchStart)
		n.polls.Add(polls)
		n.reportBytes.Add(c.tap.bytesIn.Load() - inBefore)
	}
	o.rep = rep.Report
	if err := e.Want.verify(rep.Report); err != nil {
		return fail(err)
	}
	if err := e.Want.verifyWitness(rep.Witness); err != nil {
		return fail(err)
	}
	return o
}

// waves reads the fleet's wave-barrier counter from the traced daemon's
// registry (registration is idempotent, so this finds the daemon's series).
func (s *service) waves() int64 {
	return s.reg.Counter("dist_wave_barriers_total", "").Value()
}
