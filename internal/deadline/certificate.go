package deadline

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mat"
)

// Certificate wraps an Estimator with a reusable anchor certificate that
// many detector streams over the same plant can share. The fleet engine
// attaches one Certificate per shard: in the silent steady state every
// stream's trusted estimate sits near the shared anchor, and the whole
// deadline search collapses to one distance check per stream per step —
// the cross-stream amortization a one-detector-per-goroutine design cannot
// express, because each goroutine's estimator only ever sees its own
// states.
//
// The certificate extends the Estimator's safe-shift warm start with the
// dual bound: besides the per-step SafeSlack budget proving the prefix
// stays safe, it records the UnsafeSlack budget of the first violating
// step, proving the violation also survives. A query within both budgets
// therefore has exactly the anchor's deadline — not an approximation — and
// any query outside them falls back to a full scan and re-anchors, so
// FromState always returns the same step a standalone Estimator would
// (the property the fleet's differential and fuzz tests pin).
//
// A Certificate is not safe for concurrent use; the fleet engine
// serializes access by processing each shard on one worker at a time.
type Certificate struct {
	est *Estimator

	anchored  bool
	ref       mat.Vec // anchor state of the certificate below
	safeSteps int     // anchor deadline: steps proven safe
	// thr2 is the squared hit radius: a query state within distance
	// sqrt(thr2) of ref provably has deadline safeSteps. It folds the
	// guarded minimum safe-shift budget over steps 1..safeSteps and the
	// guarded violation budget of step safeSteps+1 into one precomputed
	// bound, so the hot query is a squared-distance compare with no sqrt.
	// Negative means the anchor can never be hit (both budgets vanished).
	thr2 float64

	// lastPressure records the most recent query's deadline pressure —
	// the fraction of the anchor's hit radius the query state had consumed
	// (see Pressure semantics on TakePressure). hasPressure gates staleness:
	// TakePressure consumes it, so a reader interleaving queries from many
	// streams (the fleet worker) can attribute each value to the stream
	// whose query produced it.
	lastPressure float64
	hasPressure  bool

	// reanchors counts the full scans anchor has run: every query that
	// missed the certified ball (or found no usable anchor). Telemetry only.
	reanchors uint64
}

// NewCertificate returns an unanchored certificate over est. The first
// FromState call performs a full scan and anchors it.
func NewCertificate(est *Estimator) *Certificate {
	return &Certificate{est: est, ref: mat.NewVec(est.an.StateDim())}
}

// Estimator returns the wrapped estimator.
func (c *Certificate) Estimator() *Estimator { return c.est }

// Reanchors returns the number of full scans the certificate has run since
// it was built: one per query that missed the certified ball.
func (c *Certificate) Reanchors() uint64 { return c.reanchors }

// FromState returns the detection deadline for the trusted state x0 —
// always the exact deadline a standalone Estimator.FromState would return.
// When x0 lies within both anchor budgets the answer is the anchor's
// deadline by the argument above; otherwise the certificate re-anchors
// with a full scan at x0.
func (c *Certificate) FromState(x0 mat.Vec) int {
	if c.anchored {
		d2 := 0.0
		for i, v := range x0 {
			diff := v - c.ref[i]
			d2 += diff * diff
		}
		if d2 <= c.thr2 {
			// thr2 > 0 here: d2 >= 0, so a non-positive thr2 cannot admit a
			// hit. The ratio is the slack consumed by this stream's drift
			// from the shared anchor.
			c.lastPressure = math.Sqrt(d2 / c.thr2)
			c.hasPressure = true
			return c.safeSteps
		}
	}
	return c.anchor(x0)
}

// TakePressure returns and consumes the deadline pressure of the most
// recent FromState query: the fraction of the certificate's proven slack
// radius (the folded distance-to-unsafe budget, see thr2) the query state
// had consumed. 0 is a fresh anchor with the whole budget ahead; values
// approaching 1 mean the state is drifting to the edge of the certified
// ball, where the one-compare deadline check fails and the next query pays
// a full reachability re-scan — pressure building ahead of any alarm. A
// query that re-anchored onto a dead certificate (no budget at all)
// records pressure 1. The consuming read keeps interleaved per-stream
// queries attributable; ok is false when no query happened since the last
// take (or the certificate could not anchor).
func (c *Certificate) TakePressure() (pressure float64, ok bool) {
	pressure, ok = c.lastPressure, c.hasPressure
	c.hasPressure = false
	return pressure, ok
}

// anchor runs the estimator's full scan from x0 and freezes its outcome
// into the certificate: the anchor state, its deadline, the minimum
// safe-shift budget over the safe prefix, and the violation budget of the
// first unsafe step. The frozen copy keeps the certificate mathematically
// valid even if the underlying estimator later re-anchors elsewhere.
func (c *Certificate) anchor(x0 mat.Vec) int {
	e := c.est
	c.reanchors++
	d := e.fullScan(x0)
	if !e.haveRef {
		// Dimension fault (impossible for logger-fed states): stay
		// unanchored and conservative.
		c.anchored = false
		return d
	}
	copy(c.ref, e.ref)
	c.safeSteps = e.safeSteps
	min := math.Inf(1)
	for t := 1; t <= e.safeSteps; t++ {
		if e.slack[t] < min {
			min = e.slack[t]
		}
	}
	// Fold both budgets into one guarded hit radius. The guards mirror
	// Estimator.FromState — shrink the safe budget and the violation budget
	// by the relative+absolute margin — so the roundings in the norm, in
	// this rearrangement, and in the squaring below can only cause a
	// spurious re-scan, never a wrong skip: the 1e-9 relative margin
	// dominates the few-ulp (~1e-16 relative) error of each of them.
	thr := (min - slackGuardAbs) / (1 + slackGuardRel)
	if d < e.MaxDeadline() {
		// fullScan stopped at the first violating step and left the stepper
		// positioned there.
		if u := e.st.UnsafeSlack(e.safe)*(1-slackGuardRel) - slackGuardAbs; u < thr {
			thr = u
		}
	}
	if thr > 0 {
		c.thr2 = thr * thr
		c.lastPressure = 0 // fresh anchor: full slack budget ahead
	} else {
		c.thr2 = -1
		c.lastPressure = 1 // dead anchor: every query re-scans
	}
	c.hasPressure = true
	c.anchored = true
	return d
}

// CompatibleWith reports whether o is guaranteed to compute bit-identical
// deadlines to e for every state, provided both estimators' analyses were
// built over plants with bit-identical A and B matrices — the caller's
// obligation (the fleet engine guarantees it by sharing certificates only
// within a shard, whose membership is keyed on the plant matrices). Under
// that premise the reachability tables are a pure deterministic float
// computation of (A, B, inputs, eps, horizon), so bitwise-equal
// configurations yield bitwise-equal tables, and equal safe boxes and
// initial radii make every downstream comparison identical.
func (e *Estimator) CompatibleWith(o *Estimator) bool {
	if math.Float64bits(e.initRadius) != math.Float64bits(o.initRadius) || !boxBitsEqual(e.safe, o.safe) {
		return false
	}
	if e.an == o.an {
		return true
	}
	return e.an.Horizon() == o.an.Horizon() &&
		math.Float64bits(e.an.Eps()) == math.Float64bits(o.an.Eps()) &&
		boxBitsEqual(e.an.Inputs(), o.an.Inputs())
}

// boxBitsEqual reports bitwise equality of two boxes' bounds.
func boxBitsEqual(a, b geom.Box) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Dim(); i++ {
		ia, ib := a.Interval(i), b.Interval(i)
		if math.Float64bits(ia.Lo) != math.Float64bits(ib.Lo) || math.Float64bits(ia.Hi) != math.Float64bits(ib.Hi) {
			return false
		}
	}
	return true
}
