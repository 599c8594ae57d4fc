// Package deadline implements the Detection Deadline Estimator (Sec. 3.3):
// each control step it selects the latest trustworthy state estimate
// x̂_{t−w_c−1} from the Data Logger — the newest sample that has moved
// outside the detection window and whose detection result is final — and
// searches forward with the precomputed reachability analysis for the last
// step t_d at which the over-approximated reachable set is still disjoint
// from the unsafe set. The search is capped at the maximum detection window
// w_m (Sec. 4.3), which is also the Analysis horizon.
//
// The estimator owns all its search scratch (a resettable reach.Stepper
// plus the warm-start tables below), so the steady-state FromState path
// performs zero heap allocations. The scratch is allocated lazily, on the
// estimator's first search: New records only the configuration, so an
// estimator whose queries are all answered elsewhere — a fleet stream
// whose shard certificate wraps another stream's estimator — never holds
// any.
//
// The estimator warm-starts consecutive searches: a full scan records,
// per step t, the largest Euclidean shift of the start state under which
// step t provably stays inside the safe set (the SafeSlack certificate, a
// per-dimension Cauchy–Schwarz bound through the precomputed ‖(A^t)ᵀe_i‖₂
// table). The next query measures its distance δ
// to the anchor state and skips every leading step whose recorded slack
// covers δ — those steps are mathematically guaranteed to remain safe, so
// the reported deadline is identical to the one a full scan would find —
// then resumes the exact scan at the first uncovered step via the stepper's
// power-table jump (bit-identical to having advanced step by step). When
// the trusted state has drifted too far for the certificate to help, the
// estimator falls back to a full scan and re-anchors.
package deadline

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/logger"
	"repro/internal/mat"
	"repro/internal/reach"
)

// slackGuard deflates the warm-start certificate: a step is only skipped
// when δ·(1+1e-9)+1e-12 fits inside its recorded slack. The certificate is
// exact in real arithmetic; the guard keeps the handful of float roundings
// in the margin computation from ever flipping an ulp-borderline skip.
const (
	slackGuardRel = 1e-9
	slackGuardAbs = 1e-12
)

// Estimator computes detection deadlines on the fly.
type Estimator struct {
	an         *reach.Analysis
	safe       geom.Box
	initRadius float64

	// Owned search scratch (zero allocations in steady state), nil until
	// the first search allocates it (see allocScratch).
	st *reach.Stepper

	// Warm-start state, anchored at the start state of the last full scan;
	// ref and slack share the scratch allocation.
	ref       mat.Vec   // anchor x0
	haveRef   bool      // anchor valid
	slack     []float64 // slack[t]: safe-shift budget of step t (1..safeSteps)
	safeSteps int       // leading steps proven safe at the anchor
}

// New returns an estimator over the given reachability analysis and safe
// set. initRadius is the radius of the ball bounding estimate noise around
// the trusted initial state (Sec. 3.3.1); pass 0 for exact estimates. All
// dimension checks happen here so the per-step search path is validation-
// free (and therefore allocation- and panic-free once the first search
// has allocated the scratch).
func New(an *reach.Analysis, safe geom.Box, initRadius float64) (*Estimator, error) {
	if initRadius < 0 {
		return nil, fmt.Errorf("deadline: negative initial radius %v", initRadius)
	}
	if n := an.StateDim(); safe.Dim() != n {
		return nil, fmt.Errorf("deadline: safe set dimension %d, want %d", safe.Dim(), n)
	}
	return &Estimator{an: an, safe: safe, initRadius: initRadius}, nil
}

// allocScratch allocates the search scratch: the stepper, and one slab
// holding the anchor vector and the per-step slack table.
func (e *Estimator) allocScratch() error {
	n := e.an.StateDim()
	st, err := e.an.Stepper(mat.NewVec(n), e.initRadius)
	if err != nil {
		return err
	}
	buf := make([]float64, n+e.an.Horizon()+1)
	e.st, e.ref, e.slack = st, buf[:n:n], buf[n:]
	return nil
}

// HasScratch reports whether the estimator has allocated its search
// scratch, which it does on its first search.
func (e *Estimator) HasScratch() bool { return e.st != nil }

// Safe returns the safe state set.
func (e *Estimator) Safe() geom.Box { return e.safe }

// MaxDeadline returns the cap on reported deadlines (the analysis horizon,
// i.e. the maximum detection window w_m).
func (e *Estimator) MaxDeadline() int { return e.an.Horizon() }

// FromState computes the deadline starting from an explicit trusted state.
// x0 must have the plant's state dimension (guaranteed by the Data Logger,
// which validates every sample it ingests). The result is always identical
// to a cold reach.Analysis.Deadline scan; consecutive calls with nearby
// states reuse the warm-start certificate and skip most of the search.
func (e *Estimator) FromState(x0 mat.Vec) int {
	if !e.haveRef {
		return e.fullScan(x0)
	}
	// δ = ‖x0 − ref‖₂, accumulated without allocating.
	d2 := 0.0
	for i, v := range x0 {
		diff := v - e.ref[i]
		d2 += diff * diff
	}
	delta := math.Sqrt(d2)*(1+slackGuardRel) + slackGuardAbs

	prefix := 0
	for prefix < e.safeSteps && delta <= e.slack[prefix+1] {
		prefix++
	}
	// Too far from the anchor for the certificate to pay: re-anchor with a
	// full scan (also refreshes the slack table around the new state).
	if prefix == 0 || 2*prefix < e.safeSteps {
		return e.fullScan(x0)
	}
	if prefix == e.an.Horizon() {
		return e.an.Horizon()
	}
	// Steps 1..prefix are certified safe; resume the exact scan at
	// prefix+1. Reset+JumpTo is bit-identical to advancing from scratch.
	if err := e.st.Reset(x0, e.initRadius); err != nil {
		return e.fullScan(x0)
	}
	if err := e.st.JumpTo(prefix); err != nil {
		return e.fullScan(x0)
	}
	for e.st.Advance() {
		if !e.st.InsideBox(e.safe) {
			return e.st.Step() - 1
		}
	}
	return e.an.Horizon()
}

// fullScan runs the complete forward search from x0, recording the
// per-step safe-shift certificates and re-anchoring the warm start.
func (e *Estimator) fullScan(x0 mat.Vec) int {
	if e.st == nil {
		if err := e.allocScratch(); err != nil {
			e.haveRef = false
			return 0
		}
	}
	if err := e.st.Reset(x0, e.initRadius); err != nil {
		// Dimension fault: impossible for logger-fed states (validated at
		// ingest); stay conservative rather than panicking mid-flight.
		e.haveRef = false
		return 0
	}
	copy(e.ref, x0)
	e.safeSteps = 0
	e.haveRef = true
	for e.st.Advance() {
		sl := e.st.SafeSlack(e.safe)
		if sl < 0 {
			return e.st.Step() - 1
		}
		e.slack[e.st.Step()] = sl
		e.safeSteps = e.st.Step()
	}
	return e.an.Horizon()
}

// FromLogger computes the deadline using the logger's latest trustworthy
// estimate for the given current window size (x̂_{t−w−1}, Sec. 3.3.1). ok is
// false when the logger cannot supply the trusted sample (e.g. nothing
// observed yet); callers should then fall back to the maximum deadline.
func (e *Estimator) FromLogger(log *logger.Logger, window int) (int, bool) {
	x0, ok := log.TrustedEstimate(window)
	if !ok {
		return e.MaxDeadline(), false
	}
	return e.FromState(x0), true
}
