package detect

import (
	"fmt"

	"repro/internal/logger"
	"repro/internal/mat"
)

// Adaptive is the Adaptive Detector of Sec. 4.2. Each control step the
// caller provides the detection deadline t_d computed by the Deadline
// Estimator; the detector sets its window to min(t_d, w_m) and runs the
// window rule, inserting the complementary detection pass whenever the
// window shrank since the previous step.
type Adaptive struct {
	win    *Window
	maxWin int
	prevW  int
	primed bool

	// SkipComplementary disables the complementary detection pass on window
	// shrink. It exists solely for the ablation study that demonstrates the
	// pass is load-bearing (attacked samples escape without it); production
	// use leaves it false.
	SkipComplementary bool
}

// NewAdaptive returns an adaptive detector with threshold τ and maximum
// window size w_m (Sec. 4.3).
func NewAdaptive(tau mat.Vec, maxWin int) *Adaptive {
	if maxWin < 1 {
		panic(fmt.Sprintf("detect: maximum window %d must be >= 1", maxWin))
	}
	return &Adaptive{win: NewWindow(tau), maxWin: maxWin}
}

// MaxWindow returns w_m.
func (a *Adaptive) MaxWindow() int { return a.maxWin }

// CurrentWindow returns the window size used on the most recent step (0
// before the first step).
func (a *Adaptive) CurrentWindow() int { return a.prevW }

// Reset clears the adaptation state for a fresh run.
func (a *Adaptive) Reset() {
	a.prevW = 0
	a.primed = false
	a.win.Reset()
}

// Step runs one detection round at the logger's current step with the given
// detection deadline. The window becomes w_c = clamp(deadline, 0, w_m).
//
// Shrinking (w_c < w_p, Sec. 4.2.1): before the step-t check, the
// complementary pass re-runs the window rule with size w_c at every step
// s ∈ [t−w_p−1+w_c, t−1], so the samples that fell out of the window
// (t−w_p … t−w_c−1) are each still covered by some checked window.
//
// Growing (w_c > w_p, Sec. 4.2.2): no extra work — no sample escapes a
// window that got longer.
//
// Step returns ErrNoObservation when called before the logger has seen a
// sample, and a dimension error on residual/threshold mismatch; both are
// configuration faults the control loop should surface, not panic over.
func (a *Adaptive) Step(log *logger.Logger, deadline int) (Result, error) {
	t := log.Current()
	if t < 0 {
		return Result{}, ErrNoObservation
	}
	wc := deadline
	if wc < 0 {
		wc = 0
	}
	if wc > a.maxWin {
		wc = a.maxWin
	}

	res := Result{Step: t, Window: wc, ComplementaryStep: -1}

	if a.primed && wc < a.prevW && !a.SkipComplementary {
		from := t - a.prevW - 1 + wc
		if from < 0 {
			from = 0
		}
		for s := from; s <= t-1; s++ {
			dims, ok, err := a.win.CheckAtDims(log, s, wc)
			if err != nil {
				return Result{}, err
			}
			if ok && len(dims) > 0 {
				res.Complementary = true
				res.ComplementaryStep = s
				res.Dims = dims
				break
			}
		}
	}

	dims, ok, err := a.win.CheckAtDims(log, t, wc)
	if err != nil {
		return Result{}, err
	}
	if ok && len(dims) > 0 {
		res.Alarm = true
		if res.Dims == nil {
			res.Dims = dims
		}
	}

	a.prevW = wc
	a.primed = true
	return res, nil
}

// Fixed is the fixed-window baseline of the evaluation: the same window rule
// with a window size chosen once and never adapted.
type Fixed struct {
	win *Window
	w   int
}

// NewFixed returns a fixed-window detector with window size w.
func NewFixed(tau mat.Vec, w int) *Fixed {
	if w < 0 {
		panic(fmt.Sprintf("detect: negative fixed window %d", w))
	}
	return &Fixed{win: NewWindow(tau), w: w}
}

// WindowSize returns the fixed window size.
func (f *Fixed) WindowSize() int { return f.w }

// Step runs one detection round at the logger's current step. It returns
// ErrNoObservation before the first logged sample and dimension errors on
// residual/threshold mismatch.
func (f *Fixed) Step(log *logger.Logger) (Result, error) {
	t := log.Current()
	if t < 0 {
		return Result{}, ErrNoObservation
	}
	res := Result{Step: t, Window: f.w, ComplementaryStep: -1}
	dims, ok, err := f.win.CheckAtDims(log, t, f.w)
	if err != nil {
		return Result{}, err
	}
	if ok && len(dims) > 0 {
		res.Alarm = true
		res.Dims = dims
	}
	return res, nil
}

// Reset clears the window rule's incremental sum for a fresh run.
func (f *Fixed) Reset() { f.win.Reset() }
