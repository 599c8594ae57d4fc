// Package logger implements the paper's Data Logger (Sec. 5): a
// sliding-window protocol that, at every control step, computes the residual
// z_t = |x̂_t − x̃_t| against the one-step model prediction
// x̃_t = A x̂_{t−1} + B u_{t−1}, then buffers, holds, and releases data:
//
//   - Buffer: samples inside the current detection window w_c — possibly
//     compromised, still being checked by the detector.
//   - Hold: samples older than the current window but within the sliding
//     window w_m — trusted, needed as reachability initial states.
//   - Release: samples older than t − w_m − 1 — dropped to bound storage.
//
// The sliding-window size is fixed at the maximum detection window w_m
// (Sec. 4.3) so both the Adaptive Detector and the Deadline Estimator always
// find the samples they need, however the detection window moves. The
// window is stored as one pointer-free slab of w_m+2 slots, each holding a
// step's estimate and residual side by side; entries are views into it
// (see Logger), and AddResiduals sums a step range straight off it.
package logger

import (
	"fmt"

	"repro/internal/lti"
	"repro/internal/mat"
)

// Entry is one logged control step, viewed in place: Estimate and Residual
// alias the logger's slab (see Logger), so an Entry stays valid exactly as
// long as the logger retains its step.
type Entry struct {
	Step     int
	Estimate mat.Vec // state estimate x̂_t as delivered by the sensors
	Residual mat.Vec // |x̂_t − x̃_t|, element-wise
}

// Status classifies an entry relative to the current detection window.
type Status int

// Statuses in the order the protocol ages data: buffered while under
// detection, held while trusted history, released once past w_m.
const (
	Buffered Status = iota // inside the detection window, under scrutiny
	Held                   // outside the detection window, trusted
	Released               // outside the sliding window, dropped
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Buffered:
		return "buffered"
	case Held:
		return "held"
	case Released:
		return "released"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Logger records estimates and residuals over the sliding window.
//
// Storage is one pointer-free slab of (w_m+2)·2n float64 values, allocated
// once at construction and written in place, so the steady-state Observe
// path performs zero heap allocations. Slot i holds a step's estimate at
// offset i·2n and its residual right after it, so the steps a silent
// detection step visits come in one contiguous span each: the new step
// writes both halves of its slot, and the trusted-estimate read at t−w−1
// shares its slot with the residual leaving the sliding window sum. The
// slots form a ring: start is the oldest retained step's slot, and each
// slot's step follows from start, count and nextStep, so nothing per slot
// but the floats is stored. Entries handed out by Entry, Observe, and
// Residuals are views into the slab: they stay valid exactly as long as
// the protocol retains the step (i.e. until it is Released), and the
// entry Observe returns only until the next Observe — callers that need a
// sample beyond that must clone it.
type Logger struct {
	sys      *lti.System
	maxWin   int       // w_m
	n        int       // state dimension; a slot is 2n values
	slab     []float64 // (w_m+2) slots of estimate then residual
	start    int       // slot of the oldest retained step
	count    int       // retained steps
	nextStep int
	last     Entry   // view of the newest step, returned by Observe
	pred     mat.Vec // scratch: one-step model prediction
	zeroU    mat.Vec // all-zero input for nil transitionU (never written)
	released int
}

// New returns a logger for the given plant model with sliding window w_m.
func New(sys *lti.System, maxWin int) *Logger {
	if maxWin < 1 {
		panic(fmt.Sprintf("logger: maximum window %d must be >= 1", maxWin))
	}
	n := sys.StateDim()
	return &Logger{
		sys:    sys,
		maxWin: maxWin,
		n:      n,
		slab:   make([]float64, (maxWin+2)*2*n),
		pred:   mat.NewVec(n),
		zeroU:  mat.NewVec(sys.InputDim()),
	}
}

// slots returns the ring capacity, w_m+2 steps.
func (l *Logger) slots() int { return l.maxWin + 2 }

// slot returns the ring slot of a retained step; ok is false when the
// step is released or not yet observed.
func (l *Logger) slot(step int) (int, bool) {
	k := step - (l.nextStep - l.count)
	if k < 0 || k >= l.count {
		return 0, false
	}
	slot := l.start + k
	if slot >= l.slots() {
		slot -= l.slots()
	}
	return slot, true
}

// offset returns the slab offset of a retained step's slot.
func (l *Logger) offset(step int) (int, bool) {
	slot, ok := l.slot(step)
	return slot * 2 * l.n, ok
}

// estimateAt and residualAt view the two halves of the slot at slab offset
// off. The capped subslices keep an accidental append from bleeding into
// the neighboring half.
func (l *Logger) estimateAt(off int) mat.Vec {
	return l.slab[off : off+l.n : off+l.n]
}

func (l *Logger) residualAt(off int) mat.Vec {
	return l.slab[off+l.n : off+2*l.n : off+2*l.n]
}

// MaxWindow returns w_m.
func (l *Logger) MaxWindow() int { return l.maxWin }

// Len returns the number of retained entries.
func (l *Logger) Len() int { return l.count }

// Observe logs the state estimate received at the next control step together
// with the control input that drove the transition into it — i.e. at step t
// pass x̂_t and u_{t−1}, so the residual is
// |x̂_t − (A x̂_{t−1} + B u_{t−1})| exactly as Sec. 5 defines it. A nil
// transitionU is treated as zero input. For the first step there is no
// prediction, so the residual is zero. The returned entry is the logger's
// view of the new step, rewritten by the next Observe.
//
// A mismatched estimate or input dimension is a configuration fault: it is
// returned as an error without logging anything, so the control loop can
// surface it instead of dying mid-flight.
func (l *Logger) Observe(estimate, transitionU mat.Vec) (*Entry, error) {
	if transitionU != nil && len(transitionU) != l.sys.InputDim() {
		return nil, fmt.Errorf("logger: input dimension %d, want %d", len(transitionU), l.sys.InputDim())
	}
	return l.observe(estimate, transitionU, nil)
}

// ObservePredicted is Observe for callers that already computed the
// one-step model prediction x̃_t = A x̂_{t−1} + B u_{t−1} externally — the
// fleet engine's batch kernels produce it for a whole shard at once. pred
// must be exactly that prediction for this logger's previous estimate;
// handing in anything else silently corrupts the residual stream. Before
// the first observation pred is ignored (there is no prediction yet and
// the residual is zero), so callers may pass scratch.
func (l *Logger) ObservePredicted(estimate, pred mat.Vec) (*Entry, error) {
	if len(pred) != l.n {
		return nil, fmt.Errorf("logger: prediction dimension %d, want %d", len(pred), l.n)
	}
	return l.observe(estimate, nil, pred)
}

// observe is the shared logging path: a nil pred is computed in place from
// the retained previous estimate, a non-nil pred is trusted as the model
// prediction. Keeping one implementation guarantees the batched and the
// standalone paths can never drift apart.
func (l *Logger) observe(estimate, transitionU, pred mat.Vec) (*Entry, error) {
	if len(estimate) != l.n {
		return nil, fmt.Errorf("logger: estimate dimension %d, want %d", len(estimate), l.n)
	}
	// Release: keep exactly the sliding window [t − w_m − 1, t] by
	// recycling the oldest slot once the ring is full. The newest slot,
	// which holds the prediction input, is never the one recycled: the
	// ring holds w_m+2 ≥ 3 steps.
	prev := l.PrevEstimate()
	slot := l.start + l.count
	if slot >= l.slots() {
		slot -= l.slots()
	}
	if l.count == l.slots() {
		slot = l.start
		l.start++
		if l.start == l.slots() {
			l.start = 0
		}
		l.count--
		l.released++
	}

	off := slot * 2 * l.n
	est, res := l.estimateAt(off), l.residualAt(off)
	estimate.CopyTo(est)
	if prev != nil {
		if pred == nil {
			u := transitionU
			if u == nil {
				u = l.zeroU
			}
			l.sys.PredictTo(l.pred, prev, u)
			pred = l.pred
		}
		mat.AbsDiffTo(res, estimate, pred)
	} else {
		for i := range res {
			res[i] = 0
		}
	}
	l.last = Entry{Step: l.nextStep, Estimate: est, Residual: res}
	l.count++
	l.nextStep++
	return &l.last, nil
}

// Observed returns the lifetime number of samples logged this run — the
// protocol's buffer count.
func (l *Logger) Observed() int { return l.nextStep }

// Released returns the lifetime number of samples dropped past the sliding
// window this run — the protocol's release count. Observed − Released is
// the current occupancy (Len).
func (l *Logger) Released() int { return l.released }

// Counts classifies the retained entries under the current detection
// window w: how many are still buffered (under scrutiny) and how many are
// held as trusted history — the live split of the Buffer/Hold protocol.
func (l *Logger) Counts(w int) (buffered, held int) {
	t := l.Current()
	first := l.nextStep - l.count
	for s := first; s < l.nextStep; s++ {
		if s >= t-w {
			buffered++
		} else {
			held++
		}
	}
	return buffered, held
}

// Current returns the latest logged step index, or -1 if nothing is logged.
func (l *Logger) Current() int { return l.nextStep - 1 }

// Entry returns the logged entry for an absolute step, if still retained.
// The entry is a view into the logger's slab (see Logger).
func (l *Logger) Entry(step int) (Entry, bool) {
	off, ok := l.offset(step)
	if !ok {
		return Entry{}, false
	}
	return Entry{Step: step, Estimate: l.estimateAt(off), Residual: l.residualAt(off)}, true
}

// Residual returns the residual of a retained step, a view into the
// logger's slab (see Logger); ok is false when the step is released or not
// yet observed.
func (l *Logger) Residual(step int) (mat.Vec, bool) {
	off, ok := l.offset(step)
	if !ok {
		return nil, false
	}
	return l.residualAt(off), true
}

// AddResiduals adds the residuals of the inclusive step range [from, to]
// into sum: in ascending step order, dimensions inner — the order a
// step-by-step walk over Residual adds them, so the sum is bit-identical
// to one. It adds nothing and returns false when from > to, when any step
// in the range is no longer (or not yet) retained, or when sum's length is
// not the state dimension. The window detectors' exact recompute runs on
// it, so the walk touches the slab's contiguous slots directly.
func (l *Logger) AddResiduals(sum mat.Vec, from, to int) bool {
	if from > to || len(sum) != l.n {
		return false
	}
	slot, ok := l.slot(from)
	if !ok {
		return false
	}
	if _, ok := l.slot(to); !ok {
		return false
	}
	// The range wraps the ring at most once: add the slots up to the
	// slab's end, then the rest from slot 0.
	k := to - from + 1
	if tail := l.slots() - slot; k > tail {
		l.addSlots(sum, slot, tail)
		slot, k = 0, k-tail
	}
	l.addSlots(sum, slot, k)
	return true
}

// addSlots adds the residuals of the k consecutive slots from slot on into
// sum.
func (l *Logger) addSlots(sum mat.Vec, slot, k int) {
	n := l.n
	sum = sum[:n]
	for off, end := slot*2*n, (slot+k)*2*n; off < end; off += 2 * n {
		for i, v := range l.slab[off+n : off+2*n] {
			sum[i] += v
		}
	}
}

// PrevEstimate returns the logger's retained copy of the last observed
// estimate — the prediction input x̂_{t−1} — or nil before the first
// observation. The vector is a view into the logger's slab, overwritten
// once its step is released; callers must treat it as read-only. The
// fleet engine gathers it into the batch prediction kernels instead of
// mirroring its own copy of every stream's last estimate.
func (l *Logger) PrevEstimate() mat.Vec {
	off, ok := l.offset(l.nextStep - 1)
	if !ok {
		return nil
	}
	return l.estimateAt(off)
}

// Residuals returns the residual vectors for the inclusive step range
// [from, to]. It returns false if any step in the range is no longer (or not
// yet) retained. The vectors are views into the logger's slab (see Logger);
// callers on the per-step hot path use Residual or AddResiduals instead to
// avoid the slice allocation.
func (l *Logger) Residuals(from, to int) ([]mat.Vec, bool) {
	if from > to {
		return nil, false
	}
	out := make([]mat.Vec, 0, to-from+1)
	for s := from; s <= to; s++ {
		e, ok := l.Entry(s)
		if !ok {
			return nil, false
		}
		out = append(out, e.Residual)
	}
	return out, true
}

// TrustedEstimate returns the latest trustworthy state estimate for a
// detection window of size w ending at the current step: x̂_{t−w−1}
// (Sec. 3.3.1). ok is false when that step has been released or not yet
// observed, and for a (nonsensical) negative window. For w such that
// t−w−1 < 0, the first logged estimate is returned (run prefix is trusted
// by assumption).
func (l *Logger) TrustedEstimate(w int) (mat.Vec, bool) {
	if w < 0 {
		return nil, false
	}
	t := l.Current()
	if t < 0 {
		return nil, false
	}
	step := t - w - 1
	if step < 0 {
		step = 0
	}
	off, ok := l.offset(step)
	if !ok {
		return nil, false
	}
	return l.estimateAt(off), true
}

// StatusOf classifies step s under the current detection window w.
func (l *Logger) StatusOf(s, w int) Status {
	t := l.Current()
	switch {
	case s < t-l.maxWin-1:
		return Released
	case s >= t-w:
		return Buffered
	default:
		return Held
	}
}

// Reset clears all state for a fresh run; the slab is retained.
func (l *Logger) Reset() {
	l.start = 0
	l.count = 0
	l.nextStep = 0
	l.released = 0
}
