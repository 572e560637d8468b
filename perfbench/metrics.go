package main

import "fmt"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// ratio is a/b, or 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the traced metrics from the traced mode tm. plain is the
// untraced mode of the same run; for the service, inproc is the untraced
// in-process mode over the same catalog (nil otherwise). Counts and times
// are per traced job; a layer the workload does not reach reports 0.
func perLayer(res *result, detail map[string]any, cfg config, plain, tm, inproc *mode) error {
	jobs := float64(len(tm.outs))
	per := func(v float64) float64 { return ratio(v, jobs) }

	var tap *searchTap
	var svc *service
	switch p := tm.p.(type) {
	case *inProcess:
		tap = p.tap
	case *service:
		svc, tap = p, p.search
	default:
		return fmt.Errorf("traced mode %s has no taps", tm.name)
	}

	var runs, pruned, distinct, waves, wallSum float64
	for _, o := range tm.outs {
		if o.rep != nil {
			runs += float64(o.rep.Runs)
			pruned += float64(o.rep.Pruned)
			distinct += float64(o.rep.Distinct)
		}
		waves += float64(o.waves)
		wallSum += o.secs
	}
	if svc != nil {
		waves = float64(svc.waves())
	}

	layer := func(name string, b *busy) {
		calls, ns := float64(b.calls.Load()), float64(b.ns.Load())
		res.put(name+".calls", per(calls), "count")
		res.put(name+".busy_s", per(ns/1e9), "s")
		res.put(name+".ns_per_call", ratio(ns, calls), "ns")
	}
	layer("harness.factory", &tap.factory)
	layer("spec.validate", &tap.validate)
	layer("shmem.fingerprint", &tap.fingerprint)
	layer("proto.fork", &tap.fork)
	layer("sched.canonical", &tap.canonical)
	res.put("sched.steps", per(float64(tap.steps.Load())), "count")
	res.put("trace.executed_per_credited", ratio(float64(tap.validate.calls.Load()), runs), "ratio")
	res.put("trace.runs", per(runs), "count")
	res.put("trace.pruned", per(pruned), "count")
	res.put("trace.distinct", per(distinct), "count")
	hashes := float64(tap.fingerprint.calls.Load() + tap.canonical.calls.Load())
	res.put("trace.distinct_per_hash", ratio(distinct, hashes), "ratio")
	res.put("trace.waves", per(waves), "count")
	residual := 0.0
	if svc == nil {
		residual = per(float64(cfg.workers)*wallSum - tap.busySeconds())
	}
	res.put("trace.residual_s", residual, "s")
	res.put("bench.tracing_overhead", ratio(tm.p50(), plain.p50()), "ratio")

	// Service layers: all zero for the in-process workloads.
	var sv serviceLayers
	if svc != nil {
		var err error
		if sv, err = svc.layers(); err != nil {
			return err
		}
		sv.serviceOverhead = ratio(plain.p50(), inproc.p50())
	}
	res.put("jobd.submit_s", per(sv.submitS), "s")
	res.put("jobd.fetch_s", per(sv.fetchS), "s")
	res.put("jobd.queued_s", per(sv.queuedS), "s")
	res.put("jobd.polls", per(sv.polls), "count")
	res.put("jobd.report_bytes", per(sv.reportBytes), "B")
	res.put("jobd.service_overhead", sv.serviceOverhead, "ratio")
	res.put("crashfs.write.calls", per(sv.writeCalls), "count")
	res.put("crashfs.write.bytes", per(sv.writeBytes), "B")
	res.put("crashfs.write.busy_s", per(sv.writeS), "s")
	res.put("crashfs.sync.calls", per(sv.syncCalls), "count")
	res.put("crashfs.sync.busy_s", per(sv.syncS), "s")
	res.put("crashfs.rename.calls", per(sv.renames), "count")
	res.put("wire.worker.bytes_out", per(sv.workerOut), "B")
	res.put("wire.worker.bytes_in", per(sv.workerIn), "B")
	res.put("wire.worker.write_busy_s", per(sv.workerWriteS), "s")
	res.put("wire.daemon.bytes_out", per(sv.daemonOut), "B")
	res.put("wire.daemon.write_busy_s", per(sv.daemonWriteS), "s")
	res.put("wire.client.bytes", per(sv.clientBytes), "B")
	for _, k := range workerKinds {
		res.put("wire."+k+".frames", per(float64(sv.kinds[k].frames)), "count")
		res.put("wire."+k+".bytes", per(float64(sv.kinds[k].bytes)), "B")
	}
	res.put("wire.decode_s", per(sv.decodeS), "s")
	res.put("wire.encode_s", per(sv.encodeS), "s")
	detail["traced_jobs"] = len(tm.outs)
	detail["wire.captured_streams"] = sv.streams
	return nil
}

// serviceLayers are the service's traced totals over a run.
type serviceLayers struct {
	submitS, fetchS, queuedS, polls, reportBytes     float64
	writeCalls, writeBytes, writeS, syncCalls, syncS float64
	renames                                          float64
	workerOut, workerIn, workerWriteS, clientBytes   float64
	daemonOut, daemonWriteS                          float64
	kinds                                            map[string]kindStat
	decodeS, encodeS                                 float64
	streams                                          int
	serviceOverhead                                  float64
}

func (s *service) layers() (serviceLayers, error) {
	n := &s.clientN
	sv := serviceLayers{
		submitS:      n.submit.seconds(),
		fetchS:       n.fetch.seconds(),
		queuedS:      n.queued.seconds(),
		polls:        float64(n.polls.Load()),
		reportBytes:  float64(n.reportBytes.Load()),
		writeCalls:   float64(s.fs.write.calls.Load()),
		writeBytes:   float64(s.fs.bytes.Load()),
		writeS:       s.fs.write.seconds(),
		syncCalls:    float64(s.fs.sync.calls.Load()),
		syncS:        s.fs.sync.seconds(),
		renames:      float64(s.fs.rename.Load()),
		workerOut:    float64(s.wireW.bytesOut.Load()),
		workerIn:     float64(s.wireW.bytesIn.Load()),
		workerWriteS: s.wireW.write.seconds(),
		daemonOut:    float64(s.wireD.bytesOut.Load()),
		daemonWriteS: s.wireD.write.seconds(),
		kinds:        s.wireW.kindStats(),
	}
	for _, c := range s.clients {
		sv.clientBytes += float64(c.tap.bytesIn.Load() + c.tap.bytesOut.Load())
	}
	dec, enc, err := s.wireW.replayCost()
	if err != nil {
		return sv, fmt.Errorf("wire replay: %w", err)
	}
	for k, st := range sv.kinds {
		sv.decodeS += dec[k] * float64(st.bytes) / 1e9
		sv.encodeS += enc[k] * float64(st.bytes) / 1e9
	}
	sv.streams = len(s.wireW.streams)
	return sv, nil
}
