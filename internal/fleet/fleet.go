// Package fleet runs thousands of concurrent detection streams — one
// core.System per monitored plant instance — through shared batch kernels.
//
// Streams whose plants are content-identical (same A and B bit patterns)
// are grouped into shards. A worker processes a shard by gathering the
// pending streams' previous estimates and applied inputs into
// struct-of-arrays blocks, computing every stream's one-step model
// prediction with one cache-blocked PredictBatchTo call, and then stepping
// each detector through core.System.StepPredicted in batch order — the
// step pipeline serial callers run through core.System.Step. The plant
// matrices stream through cache once per batch instead of once per stream,
// which is where the fleet's throughput over goroutine-per-stream
// execution comes from.
//
// The batch path is bit-identical to standalone core.System.Step calls:
// the batch kernels preserve MulVecTo/MulVecAddTo's per-column summation
// order exactly (see DESIGN.md), and everything downstream of the
// prediction consumes its values, not its provenance. The differential and
// fuzz tests in this package pin that equivalence for every bundled plant.
//
// Concurrency model: each stream admits at most one in-flight sample,
// guarded by a one-token channel — Submit blocks the caller until the
// decision is delivered, Post hands the decision to the stream's callback.
// A shard is enqueued on the run queue when it has pending samples and is
// processed by exactly one worker at a time, so detector state needs no
// locking. Close drains: every accepted sample is decided before Close
// returns.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/logger"
	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Errors returned by the ingest API. Dimension and identity faults carry
// context and wrap nothing; these sentinels cover the lifecycle cases
// callers branch on.
var (
	// ErrClosed is returned by ingest calls after Close has begun.
	ErrClosed = errors.New("fleet: engine closed")
	// ErrUnknownStream is returned when a stream ID was never registered.
	ErrUnknownStream = errors.New("fleet: unknown stream")
)

// Config parameterizes an Engine. The zero value is usable: every field
// has a sensible default.
type Config struct {
	// Workers is the number of shard-processing goroutines; <= 0 uses
	// runtime.GOMAXPROCS(0).
	Workers int
	// ShardSize caps the streams grouped into one shard. <= 0, or anything
	// above one kernel tile, means mat.BatchTile: a shard is then stepped
	// as one batch whose per-stream state (2.1–10.3 KB of live heap per
	// warmed stream, 3.6 KB on aircraft-pitch — logger slab, window slab,
	// detector headers; BENCH_fleet.json's BenchmarkFleetAddStream rows)
	// stays cache-resident from the gather through the prediction to each
	// stream's step. Smaller values exist so tests can spread a few
	// streams over many shards; decisions are bit-identical at every size.
	ShardSize int
	// Observer receives fleet telemetry (stream/shard gauges, step and
	// batch counters, run-queue depth, per-shard batch latency). Nil
	// disables instrumentation at the usual one-pointer-check cost.
	Observer *obs.Observer
	// Clock supplies the timestamps for latency telemetry; nil uses the
	// wall clock. It exists so the engine's only time source is injectable:
	// detector decisions never read it (the wallclock analyzer enforces
	// this), and tests can pin it to prove decisions are a pure function of
	// the sample stream.
	Clock func() time.Time
}

// Engine is a multi-tenant detection front-end. Register streams with
// AddStream, feed them with Submit (synchronous) or Post (asynchronous,
// decision via callback), and Close to drain. All methods are safe for
// concurrent use; the per-stream detectors themselves are only ever
// touched by the engine once registered.
type Engine struct {
	cfg Config
	o   *obs.Observer
	now func() time.Time // telemetry clock (Config.Clock); never feeds decisions

	mu      sync.RWMutex // guards the stream/shard registry
	closed  atomic.Bool  // set once by Close; checked lock-free on ingest
	streams map[string]*Stream
	shards  []*shard
	open    map[string]*shard // plant key -> shard with spare capacity
	keyBuf  []byte            // plant key scratch, reused by every addStream

	runq    *runQueue
	workers sync.WaitGroup

	mStreams   *obs.Gauge
	mShards    *obs.Gauge
	mSteps     *obs.Counter
	mBatches   *obs.Counter
	mAlarms    *obs.Counter
	mPressure  *obs.Histogram
	mReanchors *obs.Counter
}

// New builds an engine and starts its workers. Callers must Close it to
// release them.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ShardSize <= 0 || cfg.ShardSize > mat.BatchTile {
		cfg.ShardSize = mat.BatchTile
	}
	if cfg.Clock == nil {
		//awdlint:allow wallclock -- the engine's single wall-clock entry point: the default telemetry clock when none is injected; decisions never read it
		cfg.Clock = time.Now
	}
	e := &Engine{
		cfg:     cfg,
		o:       cfg.Observer,
		now:     cfg.Clock,
		streams: make(map[string]*Stream),
		open:    make(map[string]*shard),
		runq:    newRunQueue(cfg.Workers),
	}
	if e.o.Enabled() {
		reg := e.o.Registry()
		e.mStreams = reg.Gauge(obs.MetricFleetStreams, "detection streams registered with the fleet engine")
		e.mShards = reg.Gauge(obs.MetricFleetShards, "shards the fleet engine has formed")
		e.mSteps = reg.Counter(obs.MetricFleetSteps, "detection steps executed by the fleet engine")
		e.mBatches = reg.Counter(obs.MetricFleetBatches, "batch kernel invocations across all shards")
		e.mAlarms = reg.Counter(obs.MetricFleetAlarms, "alarmed decisions (primary or complementary) across all streams")
		e.mPressure = reg.Histogram(obs.MetricFleetDeadlinePressure,
			"per-step fraction of the shard deadline certificate's slack radius consumed by each stream's trusted state",
			obs.DeadlinePressureBuckets)
		e.mReanchors = reg.Counter(obs.MetricFleetReanchors,
			"shard deadline certificate queries that missed the certified ball and ran a full reachability scan")
		e.runq.depth = reg.Gauge(obs.MetricFleetQueueDepth, "shards waiting on the fleet run queue")
	}
	for i := 0; i < cfg.Workers; i++ {
		e.workers.Add(1)
		go e.worker(i)
	}
	return e
}

// AddStream registers a detection stream under id. det must be freshly
// constructed (nothing observed yet) — the engine mirrors the logger's
// previous-estimate state and cannot reconstruct history. onDecision, if
// non-nil, receives the decision for every sample ingested through Post;
// it runs on a worker goroutine and must not call back into the engine
// synchronously for the same stream. Streams with content-identical plant
// matrices land in the same shard.
func (e *Engine) AddStream(id string, det *core.System, onDecision func(core.Decision, error)) (*Stream, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addStream(id, det, onDecision)
}

// addStream is AddStream with e.mu held for writing.
func (e *Engine) addStream(id string, det *core.System, onDecision func(core.Decision, error)) (*Stream, error) {
	if id == "" {
		return nil, errors.New("fleet: empty stream id")
	}
	if det == nil {
		return nil, fmt.Errorf("fleet: nil detection system for stream %q", id)
	}
	if det.Log().Observed() != 0 {
		return nil, fmt.Errorf("fleet: stream %q: detection system has already observed %d samples", id, det.Log().Observed())
	}
	sys := det.Plant()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := e.streams[id]; ok {
		return nil, fmt.Errorf("fleet: duplicate stream id %q", id)
	}
	// The open map only ever holds shards with spare capacity: a shard is
	// evicted the moment it fills (below), so membership alone proves this
	// stream fits. The key is built in reused scratch and the lookup
	// converts it without copying; only a new shard keeps a string of it.
	e.keyBuf = appendPlantKey(e.keyBuf[:0], sys)
	sh := e.open[string(e.keyBuf)]
	if sh == nil {
		sh = e.newShard(string(e.keyBuf), sys)
	}
	slot := sh.nstreams
	n, m := sys.StateDim(), sys.InputDim()
	// Streams live in a shard-owned arena, and their hot vectors are slices
	// of shard-owned slabs, both laid out in registration order: the
	// batch's gather, scatter and step loops walking the shard touch
	// contiguous regions per data kind instead of len(ss) scattered heap
	// objects.
	s := &sh.streamArr[slot]
	s.id = id
	s.eng = e
	s.sh = sh
	s.det = det
	s.log = det.Log()
	s.est = sh.estSlab[slot*n : (slot+1)*n]
	s.u = sh.uSlab[slot*m : (slot+1)*m]
	s.pred = sh.predSlab[slot*n : (slot+1)*n]
	s.done = make(chan result, 1)
	s.onDecision = onDecision
	det.SetStreamID(id)
	// Adaptive streams share the shard's deadline certificate whenever
	// their estimator configuration is provably interchangeable (shard
	// membership already pins the plant matrices bit-for-bit, which is
	// CompatibleWith's precondition). In the steady state this collapses
	// each stream's per-step deadline search to one distance check against
	// the shared anchor — the amortization the fleet's throughput over
	// goroutine-per-stream execution comes from. Certificate access needs
	// no locking: the shard is processed by one worker at a time.
	if est := det.Estimator(); est != nil {
		var cert *deadline.Certificate
		for _, c := range sh.certs {
			if c.Estimator().CompatibleWith(est) {
				cert = c
				break
			}
		}
		if cert == nil {
			cert = deadline.NewCertificate(est)
			sh.certs = append(sh.certs, cert)
		}
		det.SetDeadlineSource(cert)
		s.cert = cert
	}
	sh.nstreams++
	if sh.nstreams >= sh.size {
		// Full: drop it from the open map immediately so the next AddStream
		// for this plant goes straight to a fresh shard instead of re-probing
		// a shard that can never admit another stream.
		delete(e.open, sh.key)
	}
	e.streams[id] = s
	if e.o.Enabled() {
		e.mStreams.SetInt(len(e.streams))
		sh.mStreams.SetInt(sh.nstreams)
	}
	return s, nil
}

// dropAll unregisters every stream and shard, returning the registry to a
// new engine's; e.mu must be held for writing. Only a failed Restore calls
// it, while its write hold has kept every caller away from the streams.
func (e *Engine) dropAll() {
	for _, sh := range e.shards {
		if sh.mStreams != nil {
			sh.mStreams.SetInt(0)
		}
	}
	clear(e.streams)
	clear(e.open)
	e.shards = nil
	if e.o.Enabled() {
		e.mStreams.SetInt(0)
		e.mShards.SetInt(0)
	}
}

// newShard creates a shard for the plant behind key; e.mu must be held.
// Batch scratch and the per-stream state slabs are allocated up front at
// full shard capacity so neither registration nor processing allocates
// afterwards.
func (e *Engine) newShard(key string, sys *lti.System) *shard {
	size := e.cfg.ShardSize
	n, m := sys.StateDim(), sys.InputDim()
	sh := &shard{
		eng:       e,
		key:       key,
		idx:       len(e.shards),
		owner:     len(e.shards) % e.cfg.Workers,
		sys:       sys,
		size:      size,
		pending:   make([]*Stream, 0, size),
		work:      make([]*Stream, 0, size),
		streamArr: make([]Stream, size),
		xb:        mat.NewBatch(n, size),
		ub:        mat.NewBatch(m, size),
		pb:        mat.NewBatch(n, size),
		estSlab:   mat.NewVec(size * n),
		uSlab:     mat.NewVec(size * m),
		predSlab:  mat.NewVec(size * n),
	}
	if e.o.Enabled() {
		reg := e.o.Registry()
		sh.batchUS = reg.Histogram(
			obs.FleetShardBatchMetric(sh.idx),
			"fleet shard batch step latency (microseconds)",
			obs.FleetBatchLatencyBuckets)
		sh.mSteps = reg.Counter(obs.FleetShardMetric(obs.MetricFleetShardSteps, sh.idx),
			"detection steps executed by this shard")
		sh.mAlarms = reg.Counter(obs.FleetShardMetric(obs.MetricFleetShardAlarms, sh.idx),
			"alarmed decisions delivered by this shard")
		sh.mStreams = reg.Gauge(obs.FleetShardMetric(obs.MetricFleetShardStreams, sh.idx),
			"detection streams registered with this shard")
		e.mShards.SetInt(len(e.shards) + 1)
	}
	e.shards = append(e.shards, sh)
	e.open[key] = sh
	return sh
}

// Submit ingests one sample for the stream and blocks until its detection
// decision is available — the synchronous per-stream API, with the same
// contract as core.System.Step. appliedU may be nil for zero input.
func (e *Engine) Submit(streamID string, estimate, appliedU mat.Vec) (core.Decision, error) {
	s, err := e.lookup(streamID)
	if err != nil {
		return core.Decision{}, err
	}
	return s.Submit(estimate, appliedU)
}

// Post ingests one sample for the stream asynchronously; the decision is
// delivered to the stream's OnDecision callback. It blocks only for
// backpressure: each stream admits one in-flight sample at a time.
func (e *Engine) Post(streamID string, estimate, appliedU mat.Vec) error {
	s, err := e.lookup(streamID)
	if err != nil {
		return err
	}
	return s.Post(estimate, appliedU)
}

func (e *Engine) lookup(id string) (*Stream, error) {
	e.mu.RLock()
	s := e.streams[id]
	e.mu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	return s, nil
}

// Stream looks up a registered stream handle by ID.
func (e *Engine) Stream(id string) (*Stream, bool) {
	e.mu.RLock()
	s := e.streams[id]
	e.mu.RUnlock()
	return s, s != nil
}

// Streams returns the number of registered streams.
func (e *Engine) Streams() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.streams)
}

// Shards returns the number of shards formed so far.
func (e *Engine) Shards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.shards)
}

// Close drains the engine: it rejects new samples, waits for every
// accepted sample's decision to be delivered, and stops the workers.
// Close is idempotent and always returns nil (it implements io.Closer so
// engines compose with lifecycle helpers).
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		e.workers.Wait()
		return nil
	}
	// Sweep every stream's sample token. A token is held either by an
	// ingest call that passed the closed check (it will fill the slot and
	// wake its shard) or by the worker processing that sample; acquiring it
	// here therefore means the stream's last admitted sample has been fully
	// decided and no ingest is mid-flight. The token is put back immediately
	// so a Post blocked on it wakes, re-checks closed, and bounces — the
	// sweep never strands a caller. AddStream checks closed under e.mu, so
	// the registry snapshot below includes every stream that was admitted.
	e.mu.RLock()
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.RUnlock()
	if len(streams) == 0 {
		// Nothing was ever registered: there is no work to drain, so skip
		// the token sweep and just retire the workers.
		e.runq.close()
		e.workers.Wait()
		return nil
	}
	for _, s := range streams {
		s.tok.Lock()
		s.tok.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
	}
	e.runq.close()
	e.workers.Wait()
	return nil
}

func (e *Engine) worker(w int) {
	defer e.workers.Done()
	for {
		sh, ok := e.runq.popFor(w)
		if !ok {
			return
		}
		sh.process()
	}
}

// result carries one decision from a worker to a synchronous submitter.
type result struct {
	dec core.Decision
	err error
}

// Stream is the per-stream handle: the registered detector plus the
// single-sample ingest slot the engine's backpressure is built on.
type Stream struct {
	id  string
	eng *Engine
	sh  *shard
	det *core.System
	log *logger.Logger // det.Log(), cached to shorten the gather's pointer chain

	// Ingest slot, written by the token holder, read by the worker. The
	// shard mutex orders the hand-off.
	est, u   mat.Vec
	syncWait bool

	// Worker-owned scratch for this stream's column of the batched
	// prediction. The prediction input is read straight off the detector
	// logger's retained previous estimate, so there is no mirrored state
	// to keep in lockstep.
	pred mat.Vec

	// cert is the shard-shared deadline certificate installed as this
	// stream's deadline source (nil for non-adaptive streams). The worker
	// reads its re-anchor count around the stream's step and takes the
	// pressure the step's query left, for the fleet telemetry.
	cert *deadline.Certificate

	// tok is the sample token: holding it (the mutex locked) is the right
	// to fill the ingest slot. It is locked by the ingest caller and
	// unlocked by the worker once the decision is delivered — sync.Mutex
	// explicitly permits this cross-goroutine hand-off, and it is cheaper
	// per sample than the equivalent one-slot channel.
	tok        sync.Mutex
	done       chan result // capacity 1: decision hand-back for Submit
	onDecision func(core.Decision, error)
	steps      uint64 // written only by the processing worker
}

// ID returns the stream's registered identifier.
func (s *Stream) ID() string { return s.id }

// Steps returns the number of decisions delivered for this stream. Like
// Detector, it is only safe to read while the stream is quiescent: no
// sample in flight, or after Close (whose worker shutdown establishes the
// needed ordering).
func (s *Stream) Steps() uint64 { return s.steps }

// Detector exposes the underlying detection system. It is only safe to
// inspect while the stream is quiescent: no sample in flight, or after
// Close — the engine itself steps the detector from worker goroutines.
func (s *Stream) Detector() *core.System { return s.det }

// Submit ingests one sample and blocks until its decision is available.
func (s *Stream) Submit(estimate, appliedU mat.Vec) (core.Decision, error) {
	if err := s.validate(estimate, appliedU); err != nil {
		return core.Decision{}, err
	}
	if err := s.enqueue(estimate, appliedU, true); err != nil {
		return core.Decision{}, err
	}
	r := <-s.done
	return r.dec, r.err
}

// Post ingests one sample asynchronously; the decision goes to the
// OnDecision callback registered at AddStream. It blocks only while the
// stream's previous sample is still in flight.
func (s *Stream) Post(estimate, appliedU mat.Vec) error {
	if s.onDecision == nil {
		return fmt.Errorf("fleet: stream %q has no decision callback; use Submit", s.id)
	}
	if err := s.validate(estimate, appliedU); err != nil {
		return err
	}
	return s.enqueue(estimate, appliedU, false)
}

// validate checks sample dimensions against the plant before any state is
// touched, so a bad sample is a clean no-op and the batch gather, which
// reads each stream's s.log.PrevEstimate() and s.u, always sees columns of
// the plant's dimensions.
func (s *Stream) validate(estimate, appliedU mat.Vec) error {
	if len(estimate) != len(s.est) {
		return fmt.Errorf("fleet: stream %q estimate dimension %d, want %d", s.id, len(estimate), len(s.est))
	}
	if appliedU != nil && len(appliedU) != len(s.u) {
		return fmt.Errorf("fleet: stream %q input dimension %d, want %d", s.id, len(appliedU), len(s.u))
	}
	return nil
}

// enqueue acquires the stream's sample token, fills the ingest slot, and
// wakes the shard. The closed check happens after the token acquire: a
// token released by Close's drain sweep is seen together with the closed
// flag (mutex release/acquire ordering), so an ingest call either loses
// the race and bounces here, or wins it — and then Close cannot finish
// its sweep until this sample has been decided and its token released by
// the worker. Either way no admitted sample is ever stranded.
func (s *Stream) enqueue(estimate, appliedU mat.Vec, syncWait bool) error {
	e := s.eng
	s.tok.Lock()
	if e.closed.Load() {
		s.tok.Unlock()
		return ErrClosed
	}
	estimate.CopyTo(s.est)
	if appliedU == nil {
		for i := range s.u {
			s.u[i] = 0
		}
	} else {
		appliedU.CopyTo(s.u)
	}
	s.syncWait = syncWait
	s.sh.wake(s)
	//awdlint:allow lockflow -- token hand-off by design: the shard worker releases s.tok after deciding this sample (see stepBatch), which is the engine's backpressure
	return nil
}

// noteStep records a delivered decision; worker-only, see Steps.
func (s *Stream) noteStep() { s.steps++ }

// shard is a group of streams sharing one plant model, processed as
// batches by one worker at a time.
type shard struct {
	eng   *Engine
	key   string // plant key (see appendPlantKey), for the open map
	idx   int
	owner int // preferred worker (idx mod Workers); see runQueue
	sys   *lti.System
	size  int // stream capacity (Config.ShardSize, at most one kernel tile)

	mu       sync.Mutex
	pending  []*Stream // streams with a fresh sample awaiting processing
	work     []*Stream // spare buffer, swapped with pending each round
	queued   bool      // shard is on the run queue or being processed
	nstreams int       // registered streams (guarded by eng.mu)

	// Per-shard rollup instruments; nil when observability is disabled.
	mSteps   *obs.Counter
	mAlarms  *obs.Counter
	mStreams *obs.Gauge

	// Batch scratch, allocated at shard capacity; only the processing
	// worker touches it, and the queued flag admits one worker at a time.
	xb, ub, pb *mat.Batch
	pes        []mat.Vec // gather scratch: per-stream previous estimates

	// Per-stream state slabs the Stream hot vectors slice into, and the
	// arena the Stream structs themselves live in (see AddStream):
	// registration-ordered, so a batch's loops touch contiguous memory. The
	// arena is never reallocated, so *Stream handles stay valid for the
	// engine's life.
	estSlab, uSlab, predSlab mat.Vec
	streamArr                []Stream

	// Shared deadline certificates, one per compatible estimator
	// configuration among the shard's adaptive streams (appended under
	// eng.mu at registration; queried only by the shard's processing
	// worker, through each stream's cert).
	certs []*deadline.Certificate

	batchUS *obs.Histogram // nil when observability is disabled
}

// wake records a stream's fresh sample and enqueues the shard unless a
// worker already owns it; the owning worker re-checks pending before
// clearing queued, so no sample is lost in the hand-off.
func (sh *shard) wake(s *Stream) {
	sh.mu.Lock()
	sh.pending = append(sh.pending, s)
	enqueue := !sh.queued
	sh.queued = true
	sh.mu.Unlock()
	if enqueue {
		sh.eng.runq.push(sh)
	}
}

// process steps the shard's pending streams as one batch: each stream holds
// at most one pending sample, so pending never outgrows the shard, which is
// at most one kernel tile wide. Samples that arrive while processing are
// picked up by re-enqueueing, so the queued invariant (one worker per
// shard) holds without holding the mutex across kernel calls.
func (sh *shard) process() {
	sh.mu.Lock()
	sh.work, sh.pending = sh.pending, sh.work[:0]
	sh.mu.Unlock()
	sh.stepBatch(sh.work)
	sh.mu.Lock()
	if len(sh.pending) > 0 {
		sh.mu.Unlock()
		sh.eng.runq.push(sh)
		return
	}
	sh.queued = false
	sh.mu.Unlock()
}

// stepBatch runs one batch: it gathers the streams' previous estimates and
// inputs, computes every prediction with one PredictBatchTo call, scatters
// them back, and then steps each stream through core.System.StepPredicted
// in batch order and delivers its decision.
//
// Bit-identity with serial core.System.Step: the prediction kernels
// preserve per-column summation order (see package comment), and
// StepPredicted runs the same logging, deadline query and window rule as
// Step. Each adaptive query reaches the stream's shard certificate through
// the installed deadline source, in batch order — the query sequence
// serial stepping issues to every certificate (queries on different
// certificates never interact).
func (sh *shard) stepBatch(ss []*Stream) {
	var start time.Time
	if sh.eng.o.Enabled() {
		start = sh.eng.now()
	}
	k := len(ss)
	sh.xb.Resize(k)
	sh.ub.Resize(k)
	sh.pb.Resize(k)
	// Gather row-major: the batch rows are contiguous, so filling a whole
	// row at a time turns the strided per-column SetCol writes into
	// streaming stores (each source vector is a single cache line that
	// stays hot across the short row loop).
	pes := sh.pes[:0]
	for _, s := range ss {
		// A nil previous estimate means first sample: the logger ignores
		// the prediction, any column value works; zero keeps the kernel
		// input deterministic.
		pes = append(pes, s.log.PrevEstimate())
	}
	sh.pes = pes
	for j := 0; j < sh.xb.Dim(); j++ {
		row := sh.xb.Row(j)
		for i, pe := range pes {
			if pe != nil {
				row[i] = pe[j]
			} else {
				row[i] = 0
			}
		}
	}
	for j := 0; j < sh.ub.Dim(); j++ {
		row := sh.ub.Row(j)
		for i, s := range ss {
			row[i] = s.u[j]
		}
	}
	sh.sys.PredictBatchTo(sh.pb, sh.xb, sh.ub)
	// Scatter the predictions back row-major for the same reason.
	for j := 0; j < sh.pb.Dim(); j++ {
		row := sh.pb.Row(j)
		for i, s := range ss {
			s.pred[j] = row[i]
		}
	}

	// Between the two certificate reads only this stream's step runs, and
	// it makes at most one query, so the re-anchor delta and the pressure
	// reading belong to this stream.
	obsOn := sh.eng.o.Enabled()
	alarms := int64(0)
	var reanchors uint64
	for _, s := range ss {
		var before uint64
		if s.cert != nil {
			before = s.cert.Reanchors()
		}
		dec, err := s.det.StepPredicted(s.est, s.pred)
		if s.cert != nil {
			reanchors += s.cert.Reanchors() - before
			if p, ok := s.cert.TakePressure(); ok && obsOn {
				sh.eng.mPressure.Observe(p)
			}
		}
		s.noteStep()
		if obsOn && err == nil && dec.Alarmed() {
			alarms++
		}
		syncWait := s.syncWait
		s.syncWait = false
		if syncWait {
			// Deliver before releasing the token: the submitter blocked on
			// done must be the one to receive this result.
			s.done <- result{dec: dec, err: err}
			s.tok.Unlock()
		} else {
			cb := s.onDecision
			s.tok.Unlock()
			if cb != nil {
				cb(dec, err)
			}
		}
	}
	if obsOn {
		sh.eng.mSteps.Add(int64(k))
		sh.mSteps.Add(int64(k))
		if alarms > 0 {
			sh.eng.mAlarms.Add(alarms)
			sh.mAlarms.Add(alarms)
		}
		if reanchors > 0 {
			sh.eng.mReanchors.Add(int64(reanchors))
		}
		sh.eng.mBatches.Inc()
		sh.batchUS.Observe(float64(sh.eng.now().Sub(start)) / float64(time.Microsecond))
	}
}

// runQueue is the engine's work queue of shards with pending samples, split
// into one FIFO ring per worker for shard-to-worker affinity: a shard is
// always pushed onto its owner's ring (owner = shard index mod workers), so
// in the loaded steady state the same worker re-processes the same shards
// and their detector state and batch scratch stay warm in that worker's
// cache. A worker whose own ring is empty steals from the next non-empty
// ring — work only migrates on imbalance, never round-robins by default.
// FIFO within each ring keeps shards making even progress; each shard
// appears at most once across all rings (the queued flag), so steady-state
// pushes never allocate after warm-up. One mutex and condition variable
// cover all rings: pushes are rare relative to batch work, and a single
// wait point lets any idle worker pick up any overflow.
type runQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	rings  []workRing // one per worker, indexed by owner
	total  int        // shards queued across all rings
	closed bool
	depth  *obs.Gauge // nil when observability is disabled
}

// workRing is one worker's FIFO of runnable shards.
type workRing struct {
	buf   []*shard
	head  int
	count int
}

func (r *workRing) push(sh *shard) {
	if r.count == len(r.buf) {
		nb := make([]*shard, 2*len(r.buf))
		for i := 0; i < r.count; i++ {
			nb[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = nb
		r.head = 0
	}
	r.buf[(r.head+r.count)%len(r.buf)] = sh
	r.count++
}

func (r *workRing) pop() *shard {
	sh := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return sh
}

func newRunQueue(workers int) *runQueue {
	q := &runQueue{rings: make([]workRing, workers)}
	for i := range q.rings {
		q.rings[i].buf = make([]*shard, 16)
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *runQueue) push(sh *shard) {
	q.mu.Lock()
	q.rings[sh.owner%len(q.rings)].push(sh)
	q.total++
	if q.depth != nil {
		q.depth.SetInt(q.total)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// popFor blocks until a shard is available or the queue is closed and
// empty; a closed queue still drains. Worker w serves its own ring first
// and steals from the next non-empty ring (scanning w+1, w+2, ...) only
// when its own is dry — the imbalance signal that justifies migrating a
// shard's cache footprint.
func (q *runQueue) popFor(w int) (*shard, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.total == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.total == 0 {
		return nil, false
	}
	nw := len(q.rings)
	for i := 0; i < nw; i++ {
		if r := &q.rings[(w+i)%nw]; r.count > 0 {
			sh := r.pop()
			q.total--
			if q.depth != nil {
				q.depth.SetInt(q.total)
			}
			return sh, true
		}
	}
	// Unreachable: total > 0 implies some ring is non-empty.
	return nil, false
}

func (q *runQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// appendPlantKey appends the fingerprint of the prediction-relevant plant
// content to b: state and input dimensions plus the exact bit patterns of
// A and B. Streams share a shard only when their predictions are computed
// from bitwise-identical matrices, so sharding can never perturb results.
// C and Dt are deliberately excluded — the batch kernel computes A x + B u
// and nothing else.
func appendPlantKey(b []byte, sys *lti.System) []byte {
	n, m := sys.StateDim(), sys.InputDim()
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(m), 10)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b = append(b, ':')
			b = strconv.AppendUint(b, math.Float64bits(sys.A.At(i, j)), 16)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			b = append(b, ';')
			b = strconv.AppendUint(b, math.Float64bits(sys.B.At(i, j)), 16)
		}
	}
	return b
}

// StreamSeed derives a deterministic per-stream seed from a fleet-level
// seed and the stream ID (FNV-1a over the ID, folded with the fleet seed),
// so synthetic fleets and differential tests reproduce bit-identically for
// a given configuration regardless of registration or scheduling order.
func StreamSeed(fleetSeed uint64, id string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h ^= fleetSeed
	h *= prime
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return h
}
