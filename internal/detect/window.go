// Package detect implements the paper's attack detectors:
//
//   - the basic window-based detector of Sec. 4.1 (average residual in the
//     detection window compared per-dimension against threshold τ),
//   - the Adaptive Detector of Sec. 4.2, which re-sizes its window to the
//     detection deadline each step, running complementary detection when the
//     window shrinks so no sample escapes checking,
//   - a fixed-window baseline (the "Fixed" strategy of Table 2), and
//   - CUSUM and EWMA baselines (the classic stateful residual charts of
//     the physics-based detection literature, used for ablations).
//
// Window convention: following Sec. 4.1, a detection window of size w at
// step t covers the samples [t−w, t] — w+1 samples; the paper's average is
// taken over the samples in the window. A window of size 0 degenerates to
// checking just the current residual, the "alert every period" extreme the
// introduction discusses.
package detect

import (
	"errors"
	"fmt"

	"repro/internal/logger"
	"repro/internal/mat"
)

// ErrEmptyWindow reports a window rule evaluated over zero residuals.
var ErrEmptyWindow = errors.New("detect: empty residual window")

// ErrNoObservation reports a detector stepped before the logger observed
// any sample.
var ErrNoObservation = errors.New("detect: step before any logged observation")

// Window is the basic window-based detection rule of Sec. 4.1. It owns a
// reusable accumulator so the per-step CheckAtDims path does not allocate;
// a Window is therefore not safe for concurrent use (each detector owns
// its own, as the constructors arrange).
type Window struct {
	tau mat.Vec
	avg mat.Vec // scratch: windowed residual average

	// Incremental window-sum state (see CheckAtDims): the residual sum over
	// steps [sumFrom, sumStep], maintained across consecutive sliding checks
	// so the steady state reads two logged residuals instead of the whole
	// window. sumValid gates it; sinceRefresh forces a periodic exact
	// recompute that bounds float drift.
	sum              mat.Vec
	sumFrom, sumStep int
	sumValid         bool
	sinceRefresh     int
}

// sumRefreshEvery caps the number of consecutive incremental window-sum
// updates before an exact recompute. Each increment adds two roundings, so
// the sum never drifts more than ~128 ulp-scale errors from the exact
// windowed sum — far below any meaningful threshold margin — while the
// amortized recompute cost stays negligible.
const sumRefreshEvery = 64

// NewWindow returns a detector with the per-dimension threshold τ.
func NewWindow(tau mat.Vec) *Window {
	if len(tau) == 0 {
		panic("detect: empty threshold vector")
	}
	for i, v := range tau {
		if v < 0 {
			panic(fmt.Sprintf("detect: negative threshold %v in dimension %d", v, i))
		}
	}
	// One backing slab for the three per-dimension vectors: the silent-step
	// threshold check reads tau and writes avg off the sum, so keeping them
	// on one or two cache lines (instead of three heap objects) matters when
	// thousands of detector windows are swept per tick.
	n := len(tau)
	slab := mat.NewVec(3 * n)
	w := &Window{tau: slab[0:n:n], avg: slab[n : 2*n : 2*n], sum: slab[2*n : 3*n : 3*n]}
	tau.CopyTo(w.tau)
	return w
}

// Reset discards the incremental window-sum state. Detectors call it when
// their run restarts, so a stale sum from the previous run can never be
// slid forward into the new one.
func (w *Window) Reset() { w.sumValid = false }

// Tau returns a copy of the threshold vector.
func (w *Window) Tau() mat.Vec { return w.tau.Clone() }

// Exceeds reports whether the average of the given residual vectors exceeds
// τ in at least one dimension. It returns ErrEmptyWindow on an empty window
// and a dimension error on mismatched residuals.
func (w *Window) Exceeds(residuals []mat.Vec) (bool, error) {
	dims, err := w.Exceeding(residuals)
	return len(dims) > 0, err
}

// Exceeding returns the indices of the dimensions whose average residual
// exceeds τ — the alarm attribution that tells an operator which sensors
// look compromised. Empty when no dimension fires.
func (w *Window) Exceeding(residuals []mat.Vec) ([]int, error) {
	avg, err := w.Average(residuals)
	if err != nil {
		return nil, err
	}
	var dims []int
	for i, a := range avg {
		if a > w.tau[i] {
			dims = append(dims, i)
		}
	}
	return dims, nil
}

// Average returns the element-wise mean of the residual vectors: the
// z_t^avg of Sec. 4.1. It returns ErrEmptyWindow on an empty window and a
// dimension error on residuals that do not match τ.
func (w *Window) Average(residuals []mat.Vec) (mat.Vec, error) {
	if len(residuals) == 0 {
		return nil, ErrEmptyWindow
	}
	n := len(w.tau)
	sum := mat.NewVec(n)
	for _, r := range residuals {
		if len(r) != n {
			return nil, fmt.Errorf("detect: residual dimension %d, want %d", len(r), n)
		}
		sum.AddInPlace(r)
	}
	return sum.Scale(1 / float64(len(residuals))), nil
}

// CheckAt runs the window rule at step s with window size win against the
// logger: it averages the residuals of steps [s−win, s] (clamped at 0) and
// compares against τ. ok is false when the logger no longer retains the
// needed samples; err reports residual/threshold dimension mismatches
// (a configuration error, not a data-availability condition).
func (w *Window) CheckAt(log *logger.Logger, s, win int) (alarm, ok bool, err error) {
	alarmDims, ok, err := w.CheckAtDims(log, s, win)
	return len(alarmDims) > 0, ok, err
}

// CheckAtDims is CheckAt with alarm attribution: the dimensions whose
// windowed average exceeded τ. A negative win clamps to 0 (the degenerate
// single-sample window), mirroring Adaptive.Step's deadline clamping.
//
// The windowed sum is maintained incrementally: when this check's window
// [from, s] is the previous check's window advanced by one step — slid (the
// silent steady state) or grown in place (the run-prefix ramp) — the sum is
// updated from the one or two logged residuals that changed instead of the
// whole window (see trySlide). Any other shape (window resize,
// complementary checks at historical steps, run restart) recomputes the
// sum exactly, as does every sumRefreshEvery-th incremental update, which
// keeps the incremental sum within a hair of the exact one. Whether a given
// check updates incrementally or recomputes depends only on the sequence of
// (step, window) pairs — never on timing — so two detectors fed the same
// samples make bit-identical decisions regardless of which engine drives
// them.
//
// A silent check performs zero heap allocations; dims is only allocated
// when a dimension actually fires.
func (w *Window) CheckAtDims(log *logger.Logger, s, win int) (dims []int, ok bool, err error) {
	if win < 0 {
		win = 0
	}
	from := s - win
	if from < 0 {
		from = 0
	}
	if from > s {
		return nil, false, nil
	}
	n := len(w.tau)
	sum := w.sum
	if w.sumValid && s == w.sumStep && from == w.sumFrom {
		// The sum already covers exactly [from, s]: the same check is being
		// repeated. The detectors make one such repeat, at run start: when
		// the window shrinks at step 1, the complementary pass's window,
		// clamped at step 0, re-checks [0, 0], the check step 0 just made.
		// Thresholding the current sum answers it without a recompute.
		return w.threshold(s, from)
	}
	if w.trySlide(log, s, from) {
		return w.threshold(s, from)
	}
	// Exact recompute: the logger adds the window's residuals straight off
	// its slab, in the same step-outer/dimension-inner order as summing
	// Residual by Residual. Invalidate the sum first so an early return can
	// never leave a half-built sum marked valid.
	w.sumValid = false
	for i := range sum {
		sum[i] = 0
	}
	if !log.AddResiduals(sum, from, s) {
		// AddResiduals refuses a sum of the wrong dimension as well as a
		// range the logger no longer retains; only the former is a fault.
		if r, ok := log.Residual(s); ok && len(r) != n {
			return nil, false, fmt.Errorf("detect: residual dimension %d, want %d", len(r), n)
		}
		return nil, false, nil
	}
	w.sumFrom, w.sumStep = from, s
	w.sumValid = true
	w.sinceRefresh = 0
	return w.threshold(s, from)
}

// trySlide applies the incremental one-step update when the window
// [from, s] is the previous sum's window advanced by one step and the
// refresh budget has room. Two shapes qualify: the steady slide (both ends
// advanced — the sum gains the entering residual at s and loses the leaving
// one at from−1, reading two logged residuals instead of the whole window)
// and the ramp growth (start pinned, only the end advanced — the run prefix
// before step w_m, where the window still covers the whole history; the sum
// just gains the entering residual). A grown sum is even bitwise equal to
// the exact recompute whenever the previous sum was one, since appending
// one term to a left-to-right accumulation is the same operation sequence.
// The leaving step from−1 = s−win−1 ≥ t−w_m−1 is always still retained (the
// logger's slab is sized exactly so it is); the lookups only miss on a
// logic bug upstream, and then the caller just falls back to the exact
// recompute.
func (w *Window) trySlide(log *logger.Logger, s, from int) bool {
	if !(w.sumValid && s == w.sumStep+1 && w.sinceRefresh < sumRefreshEvery) {
		return false
	}
	if from != w.sumFrom && from != w.sumFrom+1 {
		return false
	}
	n := len(w.tau)
	rn, okN := log.Residual(s)
	if !okN || len(rn) != n {
		return false
	}
	sum := w.sum
	if from == w.sumFrom {
		for i := range sum {
			sum[i] += rn[i]
		}
	} else {
		ro, okO := log.Residual(from - 1)
		if !okO || len(ro) != n {
			return false
		}
		for i := range sum {
			sum[i] += rn[i] - ro[i]
		}
	}
	w.sumFrom, w.sumStep = from, s
	w.sinceRefresh++
	return true
}

// threshold derives the windowed average from the current sum and compares
// it against τ, allocating dims only on an exceedance.
func (w *Window) threshold(s, from int) (dims []int, ok bool, err error) {
	inv := 1 / float64(s-from+1)
	avg, tau := w.avg, w.tau
	for i := range avg {
		avg[i] = w.sum[i] * inv
		if avg[i] > tau[i] {
			dims = append(dims, i)
		}
	}
	return dims, true, nil
}

// Result is the outcome of one detector step.
type Result struct {
	Step   int  // control step the result refers to
	Window int  // detection window size used at this step
	Alarm  bool // alarm raised for the window ending at Step
	// Complementary reports an alarm raised by the complementary detection
	// pass of Sec. 4.2.1 (only the adaptive detector sets it). The alarm is
	// attributed to a historical step that escaped the shrinking window.
	Complementary bool
	// ComplementaryStep is the historical step the complementary alarm fired
	// at; -1 when Complementary is false.
	ComplementaryStep int
	// Dims lists the residual dimensions whose windowed average exceeded τ
	// for the firing check (primary or complementary) — the alarm
	// attribution pointing at the suspect sensors. Nil when nothing fired.
	Dims []int
}

// Alarmed reports whether either the primary or the complementary check
// fired.
func (r Result) Alarmed() bool { return r.Alarm || r.Complementary }
