package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/fleet"
	"repro/internal/logger"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/wire"
)

// frame is one send: sample k of every stream of a gateway.
type frame struct {
	gw *gateway
	k  int
}

// inProcessFrames is the order the wire run submits its warm-up and first
// latency-phase samples in; the in-process layer passes replay it.
func (tr *traffic) inProcessFrames() []frame {
	var fs []frame
	for k := 0; k < warmSamples; k++ {
		for _, gw := range tr.gateways {
			fs = append(fs, frame{gw, k})
		}
	}
	next := make(map[*gateway]int, len(tr.gateways))
	_ = tr.schedule(time.Time{}, tr.latency, func(ev event, _ time.Time) error {
		fs = append(fs, frame{ev.gw, warmSamples + next[ev.gw]})
		next[ev.gw]++
		return nil
	})
	return fs
}

// scratch is per-plant sample buffers for the in-process passes.
type scratch map[*plant][2][]float64

func (sc scratch) fill(s *stream, k int) (est, u []float64) {
	b, ok := sc[s.p]
	if !ok {
		b = [2][]float64{make([]float64, s.p.n), make([]float64, s.p.m)}
		sc[s.p] = b
	}
	s.fill(k, b[0], b[1])
	return b[0], b[1]
}

// walk calls fn with every sample of frames, in order, and returns the
// wall time the loop took.
func walk(frames []frame, fn func(s *stream, k int, est, u []float64)) time.Duration {
	sc := scratch{}
	start := time.Now()
	for _, f := range frames {
		for _, s := range f.gw.streams {
			est, u := sc.fill(s, f.k)
			fn(s, f.k, est, u)
		}
	}
	return time.Since(start)
}

// timedCert is the deadline layer's probe: a DeadlineSource around a
// shared Certificate that times every query and counts re-anchors. A query
// that re-anchored leaves TakePressure at exactly 0 (fresh anchor) or 1
// (dead anchor); a hit at exactly zero distance also reads 0 and is counted
// as a re-anchor, the documented ambiguity.
type timedCert struct {
	c       *deadline.Certificate
	n, re   int
	elapsed time.Duration
}

func (t *timedCert) FromState(x0 mat.Vec) int {
	start := time.Now()
	d := t.c.FromState(x0)
	t.elapsed += time.Since(start)
	t.n++
	if p, ok := t.c.TakePressure(); ok && (p == 0 || p == 1) {
		t.re++
	}
	return d
}

// serialDetectors builds one fresh detector per stream, every plant's
// streams sharing one Certificate through SetDeadlineSource, optionally
// wrapped by a timedCert per plant.
func serialDetectors(tr *traffic, timed bool) ([]*core.System, map[*plant]*timedCert, error) {
	dets := make([]*core.System, len(tr.streams))
	srcs := map[*plant]core.DeadlineSource{}
	probes := map[*plant]*timedCert{}
	for i, s := range tr.streams {
		d, err := sim.Detector(sim.Config{Model: s.p.model})
		if err != nil {
			return nil, nil, err
		}
		src, ok := srcs[s.p]
		if !ok {
			c := deadline.NewCertificate(d.Estimator())
			src = c
			if timed {
				probes[s.p] = &timedCert{c: c}
				src = probes[s.p]
			}
			srcs[s.p] = src
		}
		d.SetDeadlineSource(src)
		dets[i] = d
	}
	return dets, probes, nil
}

// timerCost is the cost of one time.Now/time.Since pair, subtracted from
// per-call timings.
func timerCost() time.Duration {
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		_ = time.Since(t)
	}
	return time.Since(start) / n
}

// layerRun collects the per-layer metrics of a traced run.
type layerRun struct {
	tr      *traffic
	frames  []frame
	samples int
	chk     *checker
	m       map[string]metric
	out     io.Writer
	ckptDir string
	timer   time.Duration
	fillNs  float64 // per-sample cost of materializing inputs, subtracted

	// Figures later passes derive from.
	stepNs, queryPerSample, serverUs float64
}

func (lr *layerRun) set(name string, v float64, unit string) { lr.m[name] = metric{v, unit} }

func (lr *layerRun) perSampleNs(d time.Duration) float64 {
	return float64(d.Nanoseconds())/float64(lr.samples) - lr.fillNs
}

// traced is a --trace 1 run: every layer timed from this program around
// calls into its public functions, on the workload's inputs, then one
// awdserve session with an untraced and a traced latency phase.
func traced(cfg config, tr *traffic, ckptDir string, serverProcs int) (*result, error) {
	lr := &layerRun{
		tr:      tr,
		frames:  tr.inProcessFrames(),
		chk:     &checker{},
		m:       map[string]metric{},
		out:     cfg.out,
		ckptDir: ckptDir,
		timer:   timerCost(),
	}
	for _, f := range lr.frames {
		lr.samples += len(f.gw.streams)
	}
	lr.fillNs = float64(walk(lr.frames, func(*stream, int, []float64, []float64) {}).Nanoseconds()) / float64(lr.samples)
	fmt.Fprintf(cfg.out, "layer passes: %d samples in %d frames (warm-up plus one latency phase, submit order); input fill %.1f ns/sample and timer %.0f ns/call subtracted\n",
		lr.samples, len(lr.frames), lr.fillNs, float64(lr.timer))

	// The in-process passes run with awdserve's GOMAXPROCS, so the fleet
	// engine and wire server in this process are configured like it.
	err := withProcs(serverProcs, func() error {
		for _, step := range []func() error{lr.core, lr.logger, lr.lti, lr.coreNew, lr.fleet, lr.fleetCounters, lr.wireServer} {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // the in-process server's streams, before awdserve starts
	err = withProcs(generatorProcs, func() error { return lr.wireSession(cfg, ckptDir, serverProcs) })
	if err != nil {
		return nil, err
	}

	names := make([]string, 0, len(lr.m))
	for n := range lr.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.out, "  %-34s %14.4f %s\n", n, lr.m[n].Value, lr.m[n].Unit)
	}
	chk := lr.chk
	if !chk.ok() {
		fmt.Fprintf(cfg.out, "decision check FAILED: %d mismatches, %d failed; first: %s\n", chk.mismatches, chk.failed, chk.first)
	} else {
		fmt.Fprintf(cfg.out, "decision check passed: %d decisions (in-process passes and wire) equal their serial references\n", chk.decided)
	}
	return &result{Correct: chk.ok(), Attempted: chk.attempted, Failed: chk.failed, Metrics: lr.m}, nil
}

// core times serial System.Step (core.step_ns), then repeats the pass with
// the deadline probe for deadline.* and the decision statistics.
func (lr *layerRun) core() error {
	dets, _, err := serialDetectors(lr.tr, false)
	if err != nil {
		return err
	}
	var stepErr error
	d := walk(lr.frames, func(s *stream, _ int, est, u []float64) {
		if _, err := dets[s.idx].Step(est, u); err != nil && stepErr == nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}
	stepNs := lr.perSampleNs(d)
	lr.set("core.step_ns", stepNs, "ns")

	dets, probes, err := serialDetectors(lr.tr, true)
	if err != nil {
		return err
	}
	var alarms, comps, windows int
	walk(lr.frames, func(s *stream, k int, est, u []float64) {
		dec, err := dets[s.idx].Step(est, u)
		lr.chk.note(s, k, dec, err)
		if dec.Alarm {
			alarms++
		}
		if dec.Complementary {
			comps++
		}
		windows += dec.Window
	})
	var q, re int
	var qt time.Duration
	for _, p := range probes {
		q += p.n
		re += p.re
		qt += p.elapsed
	}
	queryNs := 0.0
	if q > 0 {
		queryNs = float64(qt.Nanoseconds())/float64(q) - float64(lr.timer)
	}
	lr.set("deadline.query_ns", queryNs, "ns")
	lr.set("deadline.reanchor_frac", frac(re, q), "fraction")
	lr.set("detect.alarm_frac", frac(alarms, lr.samples), "fraction")
	lr.set("detect.complementary_frac", frac(comps, lr.samples), "fraction")
	lr.set("detect.window_mean", float64(windows)/float64(lr.samples), "steps")
	lr.stepNs, lr.queryPerSample = stepNs, queryNs*float64(q)/float64(lr.samples)
	return nil
}

// logger times Logger.Observe on separate loggers fed the same samples,
// then derives detect.self_ns = step − query − observe per sample.
func (lr *layerRun) logger() error {
	logs := make([]*logger.Logger, len(lr.tr.streams))
	for i, s := range lr.tr.streams {
		logs[i] = logger.New(s.p.model.Sys, s.p.model.MaxWindow)
	}
	var obsErr error
	d := walk(lr.frames, func(s *stream, _ int, est, u []float64) {
		if _, err := logs[s.idx].Observe(est, u); err != nil && obsErr == nil {
			obsErr = err
		}
	})
	if obsErr != nil {
		return obsErr
	}
	observe := lr.perSampleNs(d)
	lr.set("logger.observe_ns", observe, "ns")
	lr.set("detect.self_ns", lr.stepNs-lr.queryPerSample-observe, "ns")
	return nil
}

// lti times PredictBatchTo on full 256-column batches of workload states:
// each column is a stream's previous estimate and applied input, grouped
// per plant in submit order.
func (lr *layerRun) lti() error {
	type acc struct {
		x, u, dst *mat.Batch
		n         int
	}
	accs := map[*plant]*acc{}
	var elapsed time.Duration
	cols := 0
	prev := scratch{}
	walk(lr.frames, func(s *stream, k int, _, u []float64) {
		a := accs[s.p]
		if a == nil {
			a = &acc{x: mat.NewBatch(s.p.n, gatewaySize), u: mat.NewBatch(s.p.m, gatewaySize), dst: mat.NewBatch(s.p.n, gatewaySize)}
			accs[s.p] = a
		}
		// The column's state is the previous sample's estimate (zero
		// before the first, which the logger ignores).
		x, _ := prev.fill(s, max(k-1, 0))
		if k == 0 {
			clear(x)
		}
		a.x.SetCol(a.n, x)
		a.u.SetCol(a.n, u)
		if a.n++; a.n == gatewaySize {
			t := time.Now()
			s.p.model.Sys.PredictBatchTo(a.dst, a.x, a.u)
			elapsed += time.Since(t)
			cols += a.n
			a.n = 0
		}
	})
	if cols == 0 {
		return fmt.Errorf("lti pass: no plant has %d streams' samples to batch", gatewaySize)
	}
	lr.set("lti.predict_batch_ns_per_stream", float64(elapsed.Nanoseconds())/float64(cols), "ns")
	return nil
}

// coreNew times building a detector on a freshly built model, as awdserve's
// Open does (its reachability tables are not shared between streams).
func (lr *layerRun) coreNew() error {
	var us []float64
	for _, pc := range lr.tr.plantCounts() {
		for i := 0; i < 32 && i < pc.n; i++ {
			t := time.Now()
			if _, err := sim.Detector(sim.Config{Model: models.ByName(pc.p.model.Name)}); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t))/float64(time.Microsecond))
		}
	}
	lr.set("core.new_us", median(us), "us")
	return nil
}

// newEngine registers one detector per stream with a fresh fleet engine.
func (lr *layerRun) newEngine(o *obs.Observer) (*fleet.Engine, []*fleet.Stream, error) {
	eng := fleet.New(fleet.Config{Observer: o})
	hs := make([]*fleet.Stream, len(lr.tr.streams))
	for i, s := range lr.tr.streams {
		d, err := sim.Detector(sim.Config{Model: s.p.model})
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		if hs[i], err = eng.AddStream(s.id, d, nil); err != nil {
			eng.Close()
			return nil, nil, err
		}
	}
	return eng, hs, nil
}

// submitFrames feeds every frame to the engine, a gateway frame through
// one Batcher.Submit or a per-sample frame through Stream.Submit, checks
// each decision, and returns the time spent inside the submit calls.
func (lr *layerRun) submitFrames(eng *fleet.Engine, hs []*fleet.Stream, check bool) (time.Duration, error) {
	bt := eng.NewBatcher()
	items := make([]fleet.BatchItem, gatewaySize)
	out := make([]fleet.BatchResult, gatewaySize)
	var elapsed time.Duration
	for _, f := range lr.frames {
		gw := f.gw
		if lr.tr.w.perSample {
			s := gw.streams[0]
			s.fill(f.k, gw.ests[0], gw.us[0])
			t := time.Now()
			d, err := hs[s.idx].Submit(gw.ests[0], gw.us[0])
			elapsed += time.Since(t) - lr.timer
			if check {
				lr.chk.note(s, f.k, d, err)
			}
			continue
		}
		n := len(gw.streams)
		for i, s := range gw.streams {
			s.fill(f.k, gw.ests[i], gw.us[i])
			items[i] = fleet.BatchItem{Stream: hs[s.idx], Estimate: gw.ests[i], AppliedU: gw.us[i]}
		}
		t := time.Now()
		if err := bt.Submit(items[:n], out[:n]); err != nil {
			return 0, err
		}
		elapsed += time.Since(t)
		if check {
			for i, s := range gw.streams {
				lr.chk.note(s, f.k, out[i].Decision, out[i].Err)
			}
		}
	}
	return elapsed, nil
}

// fleet times the engine's submit seam and the state layer's snapshot and
// file write of the engine it leaves behind.
func (lr *layerRun) fleet() error {
	eng, hs, err := lr.newEngine(nil)
	if err != nil {
		return err
	}
	defer eng.Close()
	d, err := lr.submitFrames(eng, hs, true)
	if err != nil {
		return err
	}
	submitUs := float64(d.Nanoseconds()) / float64(lr.samples) / 1e3
	lr.set("fleet.submit_us_per_sample", submitUs, "us")
	lr.set("fleet.batch_gain", lr.stepNs/(submitUs*1e3), "x")

	var snap, write []float64
	var size int
	for i := 0; i < 3; i++ {
		enc := state.NewEncoder()
		enc.Header()
		t := time.Now()
		if err := eng.Snapshot(enc); err != nil {
			return err
		}
		snap = append(snap, float64(time.Since(t))/float64(time.Millisecond))
		t = time.Now()
		if err := state.WriteFile(filepath.Join(lr.ckptDir, "layers.awds"), enc.Bytes()); err != nil {
			return err
		}
		write = append(write, float64(time.Since(t))/float64(time.Millisecond))
		size = enc.Len()
	}
	lr.set("state.snapshot_ms", median(snap), "ms")
	lr.set("state.write_ms", median(write), "ms")
	lr.set("state.bytes_per_stream", float64(size)/float64(len(hs)), "B")
	return nil
}

// fleetCounters replays the frames through an engine with telemetry on and
// reads its step and batch counters, in a pass of its own so telemetry
// cost stays out of every timing.
func (lr *layerRun) fleetCounters() error {
	reg := obs.NewRegistry()
	eng, hs, err := lr.newEngine(obs.NewObserver(reg, nil))
	if err != nil {
		return err
	}
	_, err = lr.submitFrames(eng, hs, false)
	eng.Close()
	if err != nil {
		return err
	}
	steps := reg.Counter(obs.MetricFleetSteps, "").Value()
	batches := reg.Counter(obs.MetricFleetBatches, "").Value()
	lr.set("fleet.steps_per_batch", float64(steps)/float64(batches), "steps")
	return nil
}

// wireServer times wire.Server.IngestBatch / Server.Ingest called in
// process, without a connection.
func (lr *layerRun) wireServer() error {
	srv := wire.NewServer(wire.Config{})
	defer srv.Close()
	handles := make([]uint64, len(lr.tr.streams))
	for i, s := range lr.tr.streams {
		h, err := srv.Open("bench", s.id, s.p.model.Name, "adaptive", 0)
		if err != nil {
			return err
		}
		handles[i] = h
	}
	bt := srv.Engine().NewBatcher()
	hs := make([]uint64, gatewaySize)
	items := make([]fleet.BatchItem, gatewaySize)
	out := make([]fleet.BatchResult, gatewaySize)
	var elapsed time.Duration
	for _, f := range lr.frames {
		gw := f.gw
		if lr.tr.w.perSample {
			s := gw.streams[0]
			s.fill(f.k, gw.ests[0], gw.us[0])
			t := time.Now()
			d, err := srv.Ingest(handles[s.idx], gw.ests[0], gw.us[0])
			elapsed += time.Since(t) - lr.timer
			lr.chk.note(s, f.k, d, err)
			continue
		}
		n := len(gw.streams)
		for i, s := range gw.streams {
			s.fill(f.k, gw.ests[i], gw.us[i])
			hs[i] = handles[s.idx]
			items[i] = fleet.BatchItem{Estimate: gw.ests[i], AppliedU: gw.us[i]}
		}
		t := time.Now()
		if err := srv.IngestBatch(bt, hs[:n], items[:n], out[:n]); err != nil {
			return err
		}
		elapsed += time.Since(t)
		for i, s := range gw.streams {
			lr.chk.note(s, f.k, out[i].Decision, out[i].Err)
		}
	}
	lr.serverUs = float64(elapsed.Nanoseconds()) / float64(lr.samples) / 1e3
	lr.set("wire.server_us_per_sample", lr.serverUs, "us")
	return nil
}

// wireSession runs one awdserve session: timed opens, an untraced and a
// traced latency phase, and a synchronous closed loop for the round trip.
func (lr *layerRun) wireSession(cfg config, ckptDir string, serverProcs int) error {
	tr := lr.tr
	ss, _, err := openSession(cfg.awdserve, ckptDir, serverProcs, tr, lr.chk)
	if err != nil {
		return err
	}
	defer ss.close()
	opens := make([]float64, len(ss.opens))
	for i, d := range ss.opens {
		opens[i] = float64(d) / float64(time.Microsecond)
	}
	lr.set("wire.open_us", median(opens), "us")

	plain := &latencyStats{}
	if err := ss.latencyPhase(plain, tr.latency); err != nil {
		return err
	}
	ss.spans = &spanLog{}
	withSpans := &latencyStats{}
	if err := ss.latencyPhase(withSpans, tr.latency); err != nil {
		return err
	}
	spans := ss.spans
	ss.spans = nil
	lr.set("loadgen.lag_p99_us", quantile(plain.lag, 0.99), "us")
	lr.set("trace.overhead_frac", median(withSpans.lat)/median(plain.lat)-1, "fraction")
	lr.set("e2e.late_frac", frac(plain.late, plain.samples), "fraction")
	lr.set("e2e.latency_p99_us", quantile(plain.lat, 0.99), "us")
	lr.set("e2e.latency_p999_us", quantile(plain.lat, 0.999), "us")
	reportSpans(lr.out, spans)

	// The synchronous loop runs for the capacity phase's share of the run
	// at most: one frame in flight is far below the capacity rate.
	frames, samples := 0, 0
	var elapsed time.Duration
	for r, start := 0, time.Now(); r < tr.rounds && time.Since(start) < tr.capacity; r++ {
		for _, gw := range tr.gateways {
			var err error
			if tr.w.perSample {
				s := gw.streams[0]
				s.fill(s.next, gw.ests[0], gw.us[0])
				t := time.Now()
				d, ierr := ss.data.Ingest(s.handle, gw.ests[0], gw.us[0])
				elapsed += time.Since(t)
				lr.chk.note(s, s.next, d, ierr)
				s.next++
				err = ierr
			} else {
				gw.fillBatch()
				t := time.Now()
				err = ss.data.IngestBatch(gw.handles, gw.ests, gw.us, gw.out)
				elapsed += time.Since(t)
				ss.checkBatch(gw, err)
			}
			if err != nil {
				return err
			}
			frames++
			samples += len(gw.streams)
		}
	}
	rtt := float64(elapsed.Nanoseconds()) / float64(frames) / 1e3
	lr.set("wire.rtt_us_per_frame", rtt, "us")
	lr.set("wire.request_bytes_per_sample", tr.requestBytes(), "B")
	lr.set("wire.transport_us_per_sample", rtt*float64(frames)/float64(samples)-lr.serverUs, "us")
	lr.set("e2e.error_frac", frac(lr.chk.failed, lr.chk.attempted), "fraction")

	var ckpts []float64
	for j := 0; j < ckptBurst; j++ {
		ms, err := ss.checkpoint()
		if err != nil {
			return err
		}
		ckpts = append(ckpts, ms)
	}
	lr.set("e2e.checkpoint_ms", median(ckpts), "ms")
	return nil
}

// reportSpans prints the traced phase's spans, totalled per call.
func reportSpans(w io.Writer, sl *spanLog) {
	type agg struct {
		n     int
		total time.Duration
	}
	per := map[string]*agg{}
	var names []string
	for _, sp := range sl.spans {
		a := per[sp.name]
		if a == nil {
			a = &agg{}
			per[sp.name] = a
			names = append(names, sp.name)
		}
		a.n++
		a.total += sp.end.Sub(sp.start)
	}
	sort.Strings(names)
	for _, n := range names {
		a := per[n]
		fmt.Fprintf(w, "spans %-26s %8d calls, mean %.1f us\n", n, a.n, float64(a.total)/float64(a.n)/float64(time.Microsecond))
	}
}
