// Package fleet runs thousands of concurrent detection streams — one
// core.System per monitored plant instance — through shared batch kernels.
//
// Streams whose plants are content-identical (same A and B bit patterns)
// are grouped into shards. A shard is stepped by gathering the
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
// guarded by its sample token — Submit blocks the caller until the
// decision is delivered, Post hands the decision to the stream's callback.
// A synchronous submitter names where its decision goes when it fills the
// ingest slot, so submitters sharing a stream never see each other's
// decisions. A shard with pending samples is owned by exactly one
// goroutine at a time (its queued flag), so detector state needs no
// locking. The sample that flips the flag claims the shard, and the claim
// goes onto the run queue for the workers — except a synchronous
// submitter's last one: Submit, and the last sample of a Batcher wave,
// step the shard they claimed on the calling goroutine, so a one-sample
// submit costs no goroutine hand-off. No token acquire follows that claim,
// so no goroutine blocks while it owns a shard (DESIGN.md §8). Close
// drains: every accepted sample is decided before Close returns.
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
	// runtime.GOMAXPROCS(0). They step the shards Post wakes and those a
	// Batcher wave wakes before its last sample; a synchronous submitter
	// steps the shard its last sample wakes on its own goroutine, so
	// Submit needs no free worker.
	Workers int
	// ShardSize caps the streams grouped into one shard. <= 0, or anything
	// above one kernel tile, means mat.BatchTile: a shard is then stepped
	// as one batch whose per-stream state (1.9–10.2 KB of live heap per
	// warmed stream, 3.4 KB on aircraft-pitch — logger slab, window slab,
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

	runq *runQueue
	// steppers counts the goroutines that may be stepping a shard: the
	// workers, plus each synchronous submitter while it steps a shard it
	// claimed, so Close's Wait covers both.
	steppers sync.WaitGroup

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
		e.steppers.Add(1)
		go e.worker(i)
	}
	return e
}

// AddStream registers a detection stream under id. det must be freshly
// constructed (nothing observed yet) — the engine mirrors the logger's
// previous-estimate state and cannot reconstruct history. onDecision, if
// non-nil, receives the decision for every sample ingested through Post;
// it runs on whichever goroutine steps the stream's shard — a worker, or a
// synchronous submitter whose sample for another stream of the same shard
// claimed it — and must not call back into the engine synchronously for
// the same stream. Streams with content-identical plant matrices land in
// the same shard.
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
	s.onDecision = onDecision
	det.SetStreamID(id)
	// Adaptive streams share the shard's deadline certificate whenever
	// their estimator configuration is provably interchangeable (shard
	// membership already pins the plant matrices bit-for-bit, which is
	// CompatibleWith's precondition). In the steady state this collapses
	// each stream's per-step deadline search to one distance check against
	// the shared anchor — the amortization the fleet's throughput over
	// goroutine-per-stream execution comes from. Certificate access needs
	// no locking: the shard is stepped by one goroutine at a time.
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
// contract as core.System.Step. appliedU may be nil for zero input. When
// the sample finds its shard idle, the calling goroutine steps the shard
// itself (see Stream.Submit).
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
		e.steppers.Wait()
		return nil
	}
	// Sweep every stream's sample token. A token is held either by an
	// ingest call that passed the closed check (it will fill the slot and
	// wake its shard) or by the goroutine stepping that sample; acquiring it
	// here therefore means the stream's last admitted sample has been fully
	// decided and no ingest is mid-flight. The token is put back immediately
	// so a Post blocked on it wakes, re-checks closed, and bounces — the
	// sweep never strands a caller. AddStream checks closed under e.mu, so
	// the registry snapshot below includes every stream that was admitted.
	// The final Wait covers what a batch does after a token is released (a
	// Post callback runs then), whether a worker or a synchronous submitter
	// stepped it.
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
		e.steppers.Wait()
		return nil
	}
	for _, s := range streams {
		s.tok.Lock()
		s.tok.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
	}
	e.runq.close()
	e.steppers.Wait()
	return nil
}

func (e *Engine) worker(w int) {
	defer e.steppers.Done()
	for {
		sh, ok := e.runq.popFor(w)
		if !ok {
			return
		}
		sh.process()
	}
}

// stepClaimed steps a shard the calling synchronous submitter claimed at
// wake, on the caller's goroutine. The caller's own sample is still
// pending in it, its token unreleased, so Close's sweep cannot have
// passed it yet and the workers are still counted in steppers: the Add
// never races Close's Wait.
func (e *Engine) stepClaimed(sh *shard) {
	e.steppers.Add(1)
	sh.process()
	e.steppers.Done()
}

// waiter is a synchronous submit call's completion signal. Each of the
// call's samples in flight holds a count, and the call holds one more
// while it enqueues. The call reads the result cells it named at enqueue
// once every count is dropped. An armed waiter's done mutex is locked:
// whoever drops the last count other than the call unlocks it, and the
// call's wait locks it again — the token's cross-goroutine mutex hand-off,
// which needs no allocation.
type waiter struct {
	left atomic.Int32
	done sync.Mutex
}

// arm readies a new waiter: the caller's count, and done locked.
func (w *waiter) arm() {
	w.left.Store(1)
	w.done.Lock()
	//awdlint:allow lockflow -- done stays locked while the waiter is armed; finish unlocks it for wait to relock (see waiter)
}

// wait drops the caller's count, blocks until every sample enqueued under
// w has been decided, and leaves w armed for the next wait.
func (w *waiter) wait() {
	if w.left.Add(-1) != 0 {
		w.done.Lock()
	}
	w.left.Store(1)
	//awdlint:allow lockflow -- relocking done re-arms the waiter; finish unlocks it (see waiter)
}

// finish drops one decided sample's count, ending the wait if it was the
// last.
func (w *waiter) finish() {
	if w.left.Add(-1) == 0 {
		w.done.Unlock()
	}
}

// submitCall is a Stream.Submit call's waiter and result cell, pooled so
// a submit allocates nothing.
type submitCall struct {
	w   waiter
	res BatchResult
}

var submitCalls = sync.Pool{New: func() any {
	c := new(submitCall)
	c.w.arm()
	return c
}}

// Stream is the per-stream handle: the registered detector plus the
// single-sample ingest slot the engine's backpressure is built on.
type Stream struct {
	id  string
	eng *Engine
	sh  *shard
	det *core.System
	log *logger.Logger // det.Log(), cached to shorten the gather's pointer chain

	// Ingest slot, written by the token holder, read by the goroutine that
	// steps the shard. The shard mutex orders the hand-off. A synchronous
	// submitter sets w and res: the decision goes into *res and w is told;
	// nil w sends it to onDecision.
	est, u mat.Vec
	w      *waiter
	res    *BatchResult

	// Stepper-owned scratch for this stream's column of the batched
	// prediction. The prediction input is read straight off the detector
	// logger's retained previous estimate, so there is no mirrored state
	// to keep in lockstep.
	pred mat.Vec

	// cert is the shard-shared deadline certificate installed as this
	// stream's deadline source (nil for non-adaptive streams). The stepping
	// goroutine reads its re-anchor count around the stream's step and takes
	// the pressure the step's query left, for the fleet telemetry.
	cert *deadline.Certificate

	// tok is the sample token: holding it (the mutex locked) is the right
	// to fill the ingest slot. It is locked by the ingest caller and
	// unlocked by the goroutine that steps the sample once it is decided —
	// sync.Mutex explicitly permits this cross-goroutine hand-off, and it
	// is cheaper per sample than the equivalent one-slot channel.
	tok        sync.Mutex
	onDecision func(core.Decision, error)
	steps      uint64 // written only by the goroutine stepping the shard
}

// ID returns the stream's registered identifier.
func (s *Stream) ID() string { return s.id }

// Steps returns the number of decisions delivered for this stream. Like
// Detector, it is only safe to read while the stream is quiescent: no
// sample in flight, or after Close (whose token sweep and stepper wait
// establish the needed ordering).
func (s *Stream) Steps() uint64 { return s.steps }

// Detector exposes the underlying detection system. It is only safe to
// inspect while the stream is quiescent: no sample in flight, or after
// Close — the engine itself steps the detector from workers and
// synchronous submitters.
func (s *Stream) Detector() *core.System { return s.det }

// Submit ingests one sample and blocks until its decision is available.
// If the sample finds its shard idle, Submit steps the shard on the
// calling goroutine — with every other sample pending in it, Post samples
// included, whose callbacks then run here too — and needs no worker;
// otherwise the goroutine that owns the shard steps the sample and Submit
// waits for it. Concurrent Submits on one stream are served one at a time,
// each with the decision for its own sample.
func (s *Stream) Submit(estimate, appliedU mat.Vec) (core.Decision, error) {
	if err := s.validate(estimate, appliedU); err != nil {
		return core.Decision{}, err
	}
	c := submitCalls.Get().(*submitCall)
	defer submitCalls.Put(c)
	claimed, err := s.enqueue(estimate, appliedU, &c.w, &c.res)
	if err != nil {
		return core.Decision{}, err
	}
	if claimed {
		s.eng.stepClaimed(s.sh)
	}
	c.w.wait()
	return c.res.Decision, c.res.Err
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
	claimed, err := s.enqueue(estimate, appliedU, nil, nil)
	if claimed {
		s.eng.runq.push(s.sh)
	}
	return err
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
// wakes the shard, reporting whether this call claimed it (see wake): a
// claimed shard is the caller's to step or push. A synchronous caller
// passes its waiter and the cell its decision goes to; Post passes nil.
// The closed check happens after the token acquire: a token released by
// Close's drain sweep is seen together with the closed flag (mutex
// release/acquire ordering), so an ingest call either loses the race and
// bounces here, or wins it — and then Close cannot finish its sweep until
// this sample has been decided and its token released by the goroutine
// that stepped it. Either way no admitted sample is ever stranded.
func (s *Stream) enqueue(estimate, appliedU mat.Vec, w *waiter, res *BatchResult) (claimed bool, err error) {
	e := s.eng
	s.tok.Lock()
	if e.closed.Load() {
		s.tok.Unlock()
		return false, ErrClosed
	}
	estimate.CopyTo(s.est)
	if appliedU == nil {
		for i := range s.u {
			s.u[i] = 0
		}
	} else {
		appliedU.CopyTo(s.u)
	}
	s.w, s.res = w, res
	if w != nil {
		w.left.Add(1)
	}
	//awdlint:allow lockflow -- token hand-off by design: the goroutine that steps the shard releases s.tok after deciding this sample (see stepBatch), which is the engine's backpressure
	return s.sh.wake(s), nil
}

// noteStep records a delivered decision; stepper-only, see Steps.
func (s *Stream) noteStep() { s.steps++ }

// shard is a group of streams sharing one plant model, processed as
// batches by one goroutine at a time.
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
	queued   bool      // shard is owned: claimed, on the run queue, or being processed
	nstreams int       // registered streams (guarded by eng.mu)

	// Per-shard rollup instruments; nil when observability is disabled.
	mSteps   *obs.Counter
	mAlarms  *obs.Counter
	mStreams *obs.Gauge

	// Batch scratch, allocated at shard capacity; only the goroutine
	// stepping the shard touches it, and the queued flag admits one at a
	// time.
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
	// eng.mu at registration; queried only by the goroutine stepping the
	// shard, through each stream's cert).
	certs []*deadline.Certificate

	batchUS *obs.Histogram // nil when observability is disabled
}

// wake records a stream's fresh sample and reports whether the caller
// claimed the shard: it found the shard unowned and flipped queued, so
// the caller must either step it (process) or push it onto the run queue.
// A shard that is already owned is stepped by its owner, which re-checks
// pending before clearing queued, so no sample is lost in the hand-off.
func (sh *shard) wake(s *Stream) (claimed bool) {
	sh.mu.Lock()
	sh.pending = append(sh.pending, s)
	claimed = !sh.queued
	sh.queued = true
	sh.mu.Unlock()
	return claimed
}

// process steps the shard's pending streams as one batch: each stream holds
// at most one pending sample, so pending never outgrows the shard, which is
// at most one kernel tile wide. Its caller owns the shard: a worker that
// popped it or the synchronous submitter that claimed it. Samples that
// arrive while processing are picked up by pushing the shard onto the run
// queue, so the queued invariant (one owner per shard) holds without
// holding the mutex across kernel calls.
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
		if w := s.w; w != nil {
			// The slot is read before the token is released: the next
			// token holder may name another submitter's cell. finish never
			// blocks, so neither does the goroutine stepping this shard.
			*s.res = BatchResult{Decision: dec, Err: err}
			s.w, s.res = nil, nil
			s.tok.Unlock()
			w.finish()
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
