// Package core assembles the paper's three components (Fig. 1) — the Data
// Logger, the Detection Deadline Estimator, and the Adaptive Detector — into
// one per-control-step System. Fixed-window and CUSUM variants share the
// same logging front-end so the evaluation can compare strategies under
// identical inputs.
//
// Per Step call the adaptive system:
//
//  1. logs the new state estimate and its residual (Data Logger, Sec. 5),
//  2. computes the detection deadline t_d by reachability from the latest
//     trusted estimate x̂_{t−w_c−1} (Deadline Estimator, Sec. 3),
//  3. re-sizes the detection window to min(t_d, w_m) and runs the window
//     rule, with complementary detection on shrink (Adaptive Detector,
//     Sec. 4).
package core

import (
	"fmt"
	"time"

	"repro/internal/deadline"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/logger"
	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/reach"
)

// Config collects everything needed to instantiate a detection system for
// one plant. Fields mirror Table 1.
type Config struct {
	Sys       *lti.System
	Inputs    geom.Box // control input range U
	Eps       float64  // per-step uncertainty bound ε
	Safe      geom.Box // safe state set S
	Tau       mat.Vec  // detection threshold τ
	MaxWindow int      // maximum detection window w_m

	// InitRadius bounds the estimate noise around the trusted initial state
	// used for reachability (Sec. 3.3.1). Zero means exact estimates.
	InitRadius float64

	// DisableComplementary turns off the complementary detection pass
	// (ablation only).
	DisableComplementary bool

	// CUSUM parameters (only for NewCUSUM). Zero values derive defaults
	// from Tau: drift = Tau, threshold = 4·Tau.
	CUSUMDrift     mat.Vec
	CUSUMThreshold mat.Vec

	// EWMA parameters (only for NewEWMA). Zero values derive defaults:
	// λ = 2/(MaxWindow+1) (window-equivalent memory), threshold = Tau.
	EWMALambda    float64
	EWMAThreshold mat.Vec

	// Observer receives per-step telemetry (metrics + trace events). Nil
	// disables observability entirely; the hot path then pays one pointer
	// check and zero allocations per instrumentation point.
	Observer *obs.Observer
}

func (c Config) validate() error {
	if c.Sys == nil {
		return fmt.Errorf("core: nil system")
	}
	n := c.Sys.StateDim()
	if c.Safe.Dim() != n {
		return fmt.Errorf("core: safe set dimension %d, want %d", c.Safe.Dim(), n)
	}
	if len(c.Tau) != n {
		return fmt.Errorf("core: threshold dimension %d, want %d", len(c.Tau), n)
	}
	for i, v := range c.Tau {
		if v < 0 {
			return fmt.Errorf("core: negative threshold %v in dimension %d", v, i)
		}
	}
	if c.MaxWindow < 1 {
		return fmt.Errorf("core: maximum window %d must be >= 1", c.MaxWindow)
	}
	return nil
}

// Decision is the outcome of one detection step.
type Decision struct {
	Step     int  // control step this decision refers to
	Window   int  // detection window size used
	Deadline int  // detection deadline t_d computed this step (adaptive only)
	Alarm    bool // window rule fired on the window ending at Step
	// Complementary indicates the shrink-time complementary pass fired; the
	// alarm belongs to ComplementaryStep (< Step).
	Complementary     bool
	ComplementaryStep int
	// Dims attributes the alarm to the residual dimensions that exceeded τ
	// (window detectors only; nil for CUSUM/EWMA and when silent).
	Dims []int
}

// Alarmed reports whether any check fired this step.
func (d Decision) Alarmed() bool { return d.Alarm || d.Complementary }

// String renders the decision with the shared one-line format (see
// obs.FormatDecision).
func (d Decision) String() string {
	return obs.FormatDecision(d.Step, d.Window, d.Deadline, d.Alarm, d.Complementary, d.ComplementaryStep, d.Dims)
}

type mode int

const (
	modeAdaptive mode = iota
	modeFixed
	modeCUSUM
	modeEWMA
)

// System is an assembled detection pipeline.
type System struct {
	cfg  Config
	mode mode

	log      *logger.Logger
	est      *deadline.Estimator // adaptive only
	adaptive *detect.Adaptive    // adaptive only
	fixed    *detect.Fixed       // fixed only
	cusum    *detect.CUSUM       // cusum only
	ewma     *detect.EWMA        // ewma only

	// dlSrc, when non-nil, replaces est.FromState for the adaptive
	// deadline query (see DeadlineSource). The logger interaction — which
	// trusted estimate is selected, and the max-deadline fallback when none
	// is available — stays in decide, identical for both paths.
	dlSrc DeadlineSource

	obs      *obs.Observer // nil = observability disabled
	resAvg   []float64     // scratch buffer for StepEvent residual averages
	streamID string        // stamps StepEvents; see SetStreamID
}

// DeadlineSource supplies detection deadlines for explicit trusted states.
// *deadline.Estimator and *deadline.Certificate both implement it. An
// implementation must return exactly the deadline the system's own
// estimator would compute — the seam exists so the fleet engine can swap
// in a shard-shared certificate that amortizes the search across streams,
// not to change detection semantics.
type DeadlineSource interface {
	FromState(x0 mat.Vec) int
}

// SetDeadlineSource routes the adaptive detector's deadline queries
// through src; nil restores the system's own estimator. Only meaningful
// for adaptive systems (no-op queries otherwise). Not safe to call
// concurrently with Step.
func (s *System) SetDeadlineSource(src DeadlineSource) { s.dlSrc = src }

// SetStreamID stamps every subsequent trace event with a stream identity,
// making fleet-originated events attributable when thousands of detectors
// share one sink. Empty (the default) omits the field. Not safe to call
// concurrently with Step.
func (s *System) SetStreamID(id string) { s.streamID = id }

func (m mode) String() string {
	switch m {
	case modeAdaptive:
		return "adaptive"
	case modeFixed:
		return "fixed"
	case modeCUSUM:
		return "cusum"
	case modeEWMA:
		return "ewma"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// New builds the full adaptive detection system of the paper.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Shared memoizes the O(horizon·n³) coefficient tables per plant, so
	// Monte-Carlo campaigns that build one System per run pay for the
	// reachability precomputation once per process instead of once per run.
	an, err := reach.Shared(cfg.Sys, cfg.Inputs, cfg.Eps, cfg.MaxWindow)
	if err != nil {
		return nil, err
	}
	est, err := deadline.New(an, cfg.Safe, cfg.InitRadius)
	if err != nil {
		return nil, err
	}
	ad := detect.NewAdaptive(cfg.Tau, cfg.MaxWindow)
	ad.SkipComplementary = cfg.DisableComplementary
	return &System{
		cfg:      cfg,
		mode:     modeAdaptive,
		log:      logger.New(cfg.Sys, cfg.MaxWindow),
		est:      est,
		adaptive: ad,
		obs:      cfg.Observer,
	}, nil
}

// NewFixed builds the fixed-window baseline sharing the same logger
// front-end. w = 0 defaults to MaxWindow; a negative w selects the
// degenerate single-sample window (the paper's "window size 0", which
// checks only the current residual).
func NewFixed(cfg Config, w int) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch {
	case w == 0:
		w = cfg.MaxWindow
	case w < 0:
		w = 0
	}
	return &System{
		cfg:   cfg,
		mode:  modeFixed,
		log:   logger.New(cfg.Sys, cfg.MaxWindow),
		fixed: detect.NewFixed(cfg.Tau, w),
		obs:   cfg.Observer,
	}, nil
}

// NewCUSUM builds the CUSUM baseline sharing the same logger front-end.
func NewCUSUM(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	drift := cfg.CUSUMDrift
	if drift == nil {
		drift = cfg.Tau.Clone()
	}
	threshold := cfg.CUSUMThreshold
	if threshold == nil {
		threshold = cfg.Tau.Scale(4)
	}
	// Validate both the derived and the explicitly supplied parameters here
	// so the detect constructor's programmer-error panics stay unreachable
	// from configuration data.
	if len(threshold) != len(drift) {
		return nil, fmt.Errorf("core: CUSUM threshold/drift dimension mismatch %d vs %d", len(threshold), len(drift))
	}
	for i, v := range threshold {
		if v <= 0 {
			return nil, fmt.Errorf("core: CUSUM threshold %v in dimension %d not positive", v, i)
		}
	}
	for i, v := range drift {
		if v < 0 {
			return nil, fmt.Errorf("core: CUSUM drift %v in dimension %d negative", v, i)
		}
	}
	return &System{
		cfg:   cfg,
		mode:  modeCUSUM,
		log:   logger.New(cfg.Sys, cfg.MaxWindow),
		cusum: detect.NewCUSUM(threshold, drift, true),
		obs:   cfg.Observer,
	}, nil
}

// NewEWMA builds the EWMA baseline sharing the same logger front-end.
func NewEWMA(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lambda := cfg.EWMALambda
	if lambda == 0 {
		lambda = 2 / float64(cfg.MaxWindow+1)
	}
	threshold := cfg.EWMAThreshold
	if threshold == nil {
		threshold = cfg.Tau.Clone()
	}
	if len(threshold) == 0 {
		return nil, fmt.Errorf("core: empty EWMA threshold")
	}
	for i, v := range threshold {
		if v <= 0 {
			return nil, fmt.Errorf("core: EWMA threshold %v in dimension %d not positive", v, i)
		}
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("core: EWMA lambda %v outside (0, 1]", lambda)
	}
	return &System{
		cfg:  cfg,
		mode: modeEWMA,
		log:  logger.New(cfg.Sys, cfg.MaxWindow),
		ewma: detect.NewEWMA(lambda, threshold, true),
		obs:  cfg.Observer,
	}, nil
}

// Log exposes the Data Logger (read access for traces and experiments).
func (s *System) Log() *logger.Logger { return s.log }

// Plant exposes the LTI plant model this system detects over. The fleet
// engine uses it to group content-identical plants into shards that share
// one batched prediction kernel.
func (s *System) Plant() *lti.System { return s.cfg.Sys }

// Estimator exposes the deadline estimator; nil for non-adaptive systems.
func (s *System) Estimator() *deadline.Estimator { return s.est }

// Step ingests the state estimate for the next control step together with
// the input applied over the preceding period, and returns the detection
// decision for that step.
//
// Errors are configuration faults (dimension mismatches between the
// estimate, input, and the plant model); the detector state is safe to
// keep using after a failed Step, which simply did not ingest anything.
func (s *System) Step(estimate, appliedU mat.Vec) (Decision, error) {
	entry, err := s.log.Observe(estimate, appliedU)
	if err != nil {
		return Decision{}, err
	}
	return s.decide(entry)
}

// StepPredicted is Step for callers that already computed this step's model
// prediction A x̂_{t−1} + B u_{t−1} externally — the fleet engine's batch
// kernels produce it for a whole shard of streams at once. Because the
// logger residual and everything downstream consume the prediction values
// rather than how they were produced, a pred bit-identical to the serial
// computation yields a bit-identical Decision sequence (see
// logger.ObservePredicted for the contract on pred).
func (s *System) StepPredicted(estimate, pred mat.Vec) (Decision, error) {
	entry, err := s.log.ObservePredicted(estimate, pred)
	if err != nil {
		return Decision{}, err
	}
	return s.decide(entry)
}

// ObservePredicted ingests the estimate and an externally computed model
// prediction into the Data Logger without deciding, returning the logged
// entry for a later StepObserved call. StepPredicted is exactly
// ObservePredicted followed by StepObserved(entry, -1); the fleet engine
// splits the step at this seam so each phase — logging, the deadline query,
// the window-sum slide, the decision — can run batched across a whole shard.
func (s *System) ObservePredicted(estimate, pred mat.Vec) (*logger.Entry, error) {
	return s.log.ObservePredicted(estimate, pred)
}

// DeadlineQueryState returns the trusted state the adaptive deadline query
// for the current step starts from — the very x0 decide would pass to
// FromState. ok is false for non-adaptive systems and when the logger does
// not retain a trusted estimate (decide then falls back to the estimator's
// MaxDeadline; external callers replicating the query must do the same).
// Call it after ObservePredicted and before StepObserved: it reads the
// detector's previous window, which StepObserved advances.
func (s *System) DeadlineQueryState() (mat.Vec, bool) {
	if s.mode != modeAdaptive {
		return nil, false
	}
	return s.log.TrustedEstimate(s.adaptive.CurrentWindow())
}

// PrepareSlide primes the window rule's incremental sum for the upcoming
// StepObserved call — td must be the deadline that call will receive
// (adaptive only; ignored by the other strategies, and the fixed window
// needs no deadline). Decisions are bit-identical with or without the
// priming (see detect.Window.PrepareSlide); the fleet engine batches the
// slides of a whole shard into one pass.
func (s *System) PrepareSlide(td int) {
	switch s.mode {
	case modeAdaptive:
		s.adaptive.PrepareSlide(s.log, td)
	case modeFixed:
		s.fixed.PrepareSlide(s.log)
	}
}

// StepObserved completes a step split open by ObservePredicted: it runs the
// decision pipeline on the entry that call returned. A non-negative td
// injects the adaptive detection deadline computed externally — the fleet
// engine's certificate pass produces it from exactly the state
// DeadlineQueryState reports, with the same MaxDeadline fallback, so the
// injected value equals what the system's own query would compute and the
// decision sequence stays bit-identical. td < 0 runs the system's own
// deadline query (non-adaptive systems ignore td either way).
func (s *System) StepObserved(entry *logger.Entry, td int) (Decision, error) {
	return s.decideTD(entry, td)
}

// decide runs the per-step detection pipeline on a freshly logged entry:
// deadline estimation, the (adaptive) window rule, and telemetry.
func (s *System) decide(entry *logger.Entry) (Decision, error) {
	return s.decideTD(entry, -1)
}

// decideTD is decide with an optionally injected adaptive deadline: injTd
// >= 0 skips the deadline query (and its reach-latency telemetry — the
// query did not run here) and uses the given value; injTd < 0 queries as
// usual.
func (s *System) decideTD(entry *logger.Entry, injTd int) (Decision, error) {
	dec := Decision{Step: entry.Step, ComplementaryStep: -1}
	var err error

	var reachMicros float64
	reachTimed := false
	switch s.mode {
	case modeAdaptive:
		td := injTd
		if td < 0 {
			var reachStart time.Time
			if s.obs.Enabled() {
				//awdlint:allow wallclock -- reach-latency telemetry only: reachMicros feeds StepEvent, never the decision (td comes solely from logged state)
				reachStart = time.Now()
			}
			// Inlined deadline.Estimator.FromLogger, with the FromState query
			// routed through the injected source when one is set: same trusted
			// estimate, same max-deadline fallback, so the two paths are
			// decision-identical by construction.
			if x0, ok := s.log.TrustedEstimate(s.adaptive.CurrentWindow()); !ok {
				td = s.est.MaxDeadline()
			} else if s.dlSrc != nil {
				td = s.dlSrc.FromState(x0)
			} else {
				td = s.est.FromState(x0)
			}
			if s.obs.Enabled() {
				//awdlint:allow wallclock -- closes the reach-latency measurement opened above; observability-gated, decision-invisible
				reachMicros = float64(time.Since(reachStart)) / float64(time.Microsecond)
				reachTimed = true
			}
		}
		dec.Deadline = td
		res, err := s.adaptive.Step(s.log, td)
		if err != nil {
			return Decision{}, err
		}
		dec.Window = res.Window
		dec.Alarm = res.Alarm
		dec.Complementary = res.Complementary
		dec.ComplementaryStep = res.ComplementaryStep
		dec.Dims = res.Dims
	case modeFixed:
		res, err := s.fixed.Step(s.log)
		if err != nil {
			return Decision{}, err
		}
		dec.Window = res.Window
		dec.Alarm = res.Alarm
		dec.Dims = res.Dims
	case modeCUSUM:
		if dec.Alarm, err = s.cusum.Update(entry.Residual); err != nil {
			return Decision{}, err
		}
	case modeEWMA:
		if dec.Alarm, err = s.ewma.Update(entry.Residual); err != nil {
			return Decision{}, err
		}
	}

	if s.obs.Enabled() {
		s.obs.ObserveStep(obs.StepEvent{
			Step:              dec.Step,
			StreamID:          s.streamID,
			Strategy:          s.mode.String(),
			Window:            dec.Window,
			Deadline:          dec.Deadline,
			Alarm:             dec.Alarm,
			Complementary:     dec.Complementary,
			ComplementaryStep: dec.ComplementaryStep,
			Dims:              dec.Dims,
			ResidualAvg:       s.residualAvg(dec.Step, dec.Window),
			ReachTimed:        reachTimed,
			ReachMicros:       reachMicros,
			LoggerLen:         s.log.Len(),
			LoggerObserved:    s.log.Observed(),
			LoggerReleased:    s.log.Released(),
		})
	}
	return dec, nil
}

// residualAvg computes the per-dimension windowed average residual for the
// window of size w ending at step t — the quantity the window rule holds
// against τ. Only called with observability enabled; reuses one scratch
// buffer so steady-state trace emission does not allocate.
func (s *System) residualAvg(t, w int) []float64 {
	from := t - w
	if from < 0 {
		from = 0
	}
	if from > t {
		return nil
	}
	n := s.cfg.Sys.StateDim()
	if cap(s.resAvg) < n {
		s.resAvg = make([]float64, n)
	}
	avg := s.resAvg[:n]
	for i := range avg {
		avg[i] = 0
	}
	// Accumulate straight off the logger ring — no intermediate residual
	// slice, so trace emission stays allocation-free.
	for step := from; step <= t; step++ {
		e, ok := s.log.Entry(step)
		if !ok {
			return nil
		}
		for i := range avg {
			avg[i] += e.Residual[i]
		}
	}
	inv := 1 / float64(t-from+1)
	for i := range avg {
		avg[i] *= inv
	}
	return avg
}

// Reset clears all run state so the system can drive a fresh experiment.
func (s *System) Reset() {
	s.log.Reset()
	switch s.mode {
	case modeAdaptive:
		s.adaptive.Reset()
	case modeFixed:
		s.fixed.Reset()
	case modeCUSUM:
		s.cusum.Reset()
	case modeEWMA:
		s.ewma.Reset()
	}
}
