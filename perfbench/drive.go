package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

type wireResult = wire.IngestResult

// ckptName is the file every benchmark Checkpoint overwrites.
const ckptName = "perfbench.awds"

// pipelineWindow is the per-sample workload's in-flight window: the fixed
// number of outstanding frames in its capacity phase.
const pipelineWindow = 64

// session is one awdserve process, its data and control connections, and
// the workload's streams opened on it.
type session struct {
	tr    *traffic
	srv   *serverProc
	data  *wire.Client
	ctrl  *wire.Client
	chk   *checker
	opens []time.Duration // each Client.Open round trip
	spans *spanLog        // nil: untraced
}

// span is one call into a layer from this program, timed on the traced
// latency phase.
type span struct {
	name       string
	start, end time.Time
}

// spanLog keeps a traced phase's spans in memory until the run reports
// them. A nil log records nothing.
type spanLog struct{ spans []span }

func (sl *spanLog) add(name string, start, end time.Time) {
	if sl != nil {
		sl.spans = append(sl.spans, span{name, start, end})
	}
}

// openSession starts awdserve, opens every stream on the data connection
// and warms each past the window ramp. The returned duration is setup_s:
// from process start until the last warm-up decision arrived.
func openSession(bin, ckptDir string, gomaxprocs int, tr *traffic, chk *checker) (*session, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(bin, ckptDir, gomaxprocs)
	if err != nil {
		return nil, 0, err
	}
	ss := &session{tr: tr, srv: srv, chk: chk}
	if ss.data, err = wire.Dial(srv.addr); err != nil {
		ss.close()
		return nil, 0, fmt.Errorf("dial data connection: %w", err)
	}
	if ss.ctrl, err = wire.Dial(srv.addr); err != nil {
		ss.close()
		return nil, 0, fmt.Errorf("dial control connection: %w", err)
	}
	ss.opens = make([]time.Duration, 0, len(tr.streams))
	for _, s := range tr.streams {
		t := time.Now()
		h, err := ss.data.Open("bench", s.id, s.p.model.Name, "adaptive", 0)
		if err != nil {
			ss.close()
			return nil, 0, fmt.Errorf("open %s: %w", s.id, err)
		}
		ss.opens = append(ss.opens, time.Since(t))
		s.handle = h
		s.next = 0
	}
	if err := ss.closedLoop(warmSamples); err != nil {
		ss.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return ss, time.Since(start), nil
}

func (ss *session) close() {
	if ss.data != nil {
		ss.data.Close()
	}
	if ss.ctrl != nil {
		ss.ctrl.Close()
	}
	ss.srv.stop()
}

// fillBatch stages the gateway's next sample for each of its streams in
// its frame scratch.
func (gw *gateway) fillBatch() {
	for i, s := range gw.streams {
		gw.handles[i] = s.handle
		s.fill(s.next, gw.ests[i], gw.us[i])
	}
}

// sendBatch sends the gateway's next samples as one IngestBatch frame. Call
// checkBatch after taking the reply's timestamp.
func (ss *session) sendBatch(gw *gateway) error {
	gw.fillBatch()
	return ss.data.IngestBatch(gw.handles, gw.ests, gw.us, gw.out)
}

func (ss *session) checkBatch(gw *gateway, err error) {
	for i, s := range gw.streams {
		if err != nil {
			ss.chk.note(s, s.next, core.Decision{}, err)
		} else {
			ss.chk.note(s, s.next, gw.out[i].Decision, gw.out[i].Err)
		}
		s.next++
	}
}

// sub is one pipelined sample awaiting its decision.
type sub struct {
	s     *stream
	k     int
	sched time.Time
}

// pipe drives Client.Pipeline. The sender fills subs[sent] before staging
// sample sent; the reader goroutine's deliver callback consumes subs in
// the same order (the pipeline delivers in submission order), so the slice
// is preallocated and never grows while the pipeline is open.
type pipe struct {
	ss   *session
	p    *wire.Pipeline
	subs []sub
	sent int
	got  int       // reader side
	lat  []float64 // reader side: µs from schedule to decision
	late int       // reader side: decisions later than one period
	keep bool      // record latencies
}

func (ss *session) newPipe(n int, keep bool) (*pipe, error) {
	pp := &pipe{ss: ss, subs: make([]sub, n), keep: keep}
	if keep {
		pp.lat = make([]float64, 0, n)
	}
	p, err := ss.data.Pipeline(pipelineWindow, pp.deliver)
	if err != nil {
		return nil, err
	}
	pp.p = p
	return pp, nil
}

func (pp *pipe) deliver(_ uint64, d core.Decision, err error) {
	sb := pp.subs[pp.got]
	pp.got++
	if pp.keep {
		lat := time.Since(sb.sched)
		pp.lat = append(pp.lat, float64(lat)/float64(time.Microsecond))
		if err != nil || lat > sb.s.p.period {
			pp.late++
		}
	}
	pp.ss.chk.note(sb.s, sb.k, d, err)
}

// stage queues stream s's next sample.
func (pp *pipe) stage(s *stream, sched time.Time, gw *gateway) error {
	pp.subs[pp.sent] = sub{s: s, k: s.next, sched: sched}
	pp.sent++
	s.fill(s.next, gw.ests[0], gw.us[0])
	s.next++
	return pp.p.Ingest(s.handle, gw.ests[0], gw.us[0])
}

// closedLoop sends rounds samples per stream, gateway by gateway, with one
// frame outstanding (batched) or pipelineWindow frames outstanding
// (per-sample).
func (ss *session) closedLoop(rounds int) error {
	tr := ss.tr
	if tr.w.perSample {
		pp, err := ss.newPipe(rounds*len(tr.streams), false)
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			for _, gw := range tr.gateways {
				if err := pp.stage(gw.streams[0], time.Time{}, gw); err != nil {
					pp.p.Close()
					return err
				}
			}
		}
		return pp.p.Close()
	}
	for r := 0; r < rounds; r++ {
		for _, gw := range tr.gateways {
			err := ss.sendBatch(gw)
			ss.checkBatch(gw, err)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// latencyStats is what an open-loop phase measured.
type latencyStats struct {
	lat     []float64 // µs from each sample's scheduled time to its decision
	lag     []float64 // µs each send started after its scheduled time
	late    int       // samples decided more than one period late, or failed
	samples int       // samples attempted
	ckpt    []float64 // ms per Checkpoint RPC that stalled the phase
}

// latencyPhase runs the open loop for l, adding to st: every gateway sends
// at its phase offset once per period, timed from the scheduled time.
// Halfway through, the control connection checkpoints, which quiesces
// ingest.
func (ss *session) latencyPhase(st *latencyStats, l time.Duration) error {
	t0 := time.Now().Add(2 * time.Millisecond)
	stop := make(chan struct{})
	ckDone := make(chan struct{})
	var ckptErr error
	go func() {
		defer close(ckDone)
		timer := time.NewTimer(time.Until(t0.Add(l / 2)))
		defer timer.Stop()
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		var ms float64
		if ms, ckptErr = ss.checkpoint(); ckptErr == nil {
			st.ckpt = append(st.ckpt, ms)
		}
	}()
	err := ss.openLoop(t0, l, st)
	close(stop)
	<-ckDone
	if err != nil {
		return err
	}
	return ckptErr
}

// spinBefore is how long before a scheduled send the generator stops
// sleeping and spins, so timer wake-up jitter does not land in the latency
// figures.
const spinBefore = 300 * time.Microsecond

// waitUntil returns at t, or at once if t has passed. The spin yields, so
// the pipeline's reader goroutine runs on the generator's one P meanwhile.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// schedule calls send for every event due in [t0, t0+l), in time order.
func (tr *traffic) schedule(t0 time.Time, l time.Duration, send func(ev event, sched time.Time) error) error {
	for base := time.Duration(0); base < l; base += tr.hyper {
		for _, ev := range tr.events {
			if base+ev.at >= l {
				break
			}
			if err := send(ev, t0.Add(base+ev.at)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ss *session) openLoop(t0 time.Time, l time.Duration, st *latencyStats) error {
	tr := ss.tr
	if !tr.w.perSample {
		return tr.schedule(t0, l, func(ev event, sched time.Time) error {
			waitUntil(sched)
			sent := time.Now()
			st.lag = append(st.lag, float64(sent.Sub(sched))/float64(time.Microsecond))
			err := ss.sendBatch(ev.gw)
			done := time.Now()
			ss.spans.add("wire.Client.IngestBatch", sent, done)
			lat := done.Sub(sched)
			us := float64(lat) / float64(time.Microsecond)
			for range ev.gw.streams {
				st.lat = append(st.lat, us)
			}
			n := len(ev.gw.streams)
			st.samples += n
			if lat > ev.gw.p.period {
				st.late += n
			} else {
				for _, r := range ev.gw.out {
					if err == nil && r.Err != nil {
						st.late++
					}
				}
			}
			ss.checkBatch(ev.gw, err)
			return err
		})
	}
	n := 0
	_ = tr.schedule(t0, l, func(event, time.Time) error { n++; return nil })
	pp, err := ss.newPipe(n, true)
	if err != nil {
		return err
	}
	staged := 0
	err = tr.schedule(t0, l, func(ev event, sched time.Time) error {
		if time.Until(sched) > 0 && staged > 0 {
			// Nothing else is due: push what is staged and collect it.
			t := time.Now()
			if err := pp.p.Flush(); err != nil {
				return err
			}
			ss.spans.add("wire.Pipeline.Flush", t, time.Now())
			staged = 0
		}
		waitUntil(sched)
		sent := time.Now()
		st.lag = append(st.lag, float64(sent.Sub(sched))/float64(time.Microsecond))
		staged++
		err := pp.stage(ev.gw.streams[0], sched, ev.gw)
		ss.spans.add("wire.Pipeline.Ingest", sent, time.Now())
		return err
	})
	if cerr := pp.p.Close(); err == nil {
		err = cerr
	}
	st.lat = append(st.lat, pp.lat...)
	st.late += pp.late
	st.samples += pp.sent
	return err
}

// checkpoint times one Checkpoint RPC on the control connection, in ms.
func (ss *session) checkpoint() (float64, error) {
	t := time.Now()
	if _, err := ss.ctrl.Checkpoint(ckptName); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return float64(time.Since(t)) / float64(time.Millisecond), nil
}

// capacitySlices is how many equal slices a session's capacity phase is
// measured in; throughput and CPU per sample are medians over all slices.
const capacitySlices = 3

// capacityStats is what the closed-loop phase measured, per slice.
type capacityStats struct {
	samples []int
	elapsed []time.Duration
	cpu     []time.Duration // awdserve user+system CPU
}

// capacityPhase sends the workload's capacity inputs closed-loop in
// capacitySlices slices into st, stopping early only if the phase overruns
// limit.
func (ss *session) capacityPhase(st *capacityStats, limit time.Duration) error {
	start := time.Now()
	for i := 0; i < capacitySlices; i++ {
		rounds := ss.tr.rounds*(i+1)/capacitySlices - ss.tr.rounds*i/capacitySlices
		cpu0, err := ss.srv.cpu()
		if err != nil {
			return err
		}
		before := ss.chk.decided
		t := time.Now()
		if err := ss.closedLoop(rounds); err != nil {
			return err
		}
		elapsed := time.Since(t)
		cpu1, err := ss.srv.cpu()
		if err != nil {
			return err
		}
		st.samples = append(st.samples, ss.chk.decided-before)
		st.elapsed = append(st.elapsed, elapsed)
		st.cpu = append(st.cpu, cpu1-cpu0)
		if time.Since(start) > limit {
			break
		}
	}
	return nil
}

// throughput is each slice's decided samples per second.
func (c *capacityStats) throughput() []float64 {
	out := make([]float64, len(c.samples))
	for i, n := range c.samples {
		out[i] = float64(n) / c.elapsed[i].Seconds()
	}
	return out
}

// cpuPerSample is each slice's awdserve CPU µs per decided sample.
func (c *capacityStats) cpuPerSample() []float64 {
	out := make([]float64, len(c.samples))
	for i, n := range c.samples {
		out[i] = c.cpu[i].Seconds() * 1e6 / float64(n)
	}
	return out
}
