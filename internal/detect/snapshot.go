package detect

import (
	"fmt"

	"repro/internal/state"
)

// Component versions for the detect package's snapshot layouts.
const (
	windowStateVersion   = 1
	adaptiveStateVersion = 1
	fixedStateVersion    = 1
	cusumStateVersion    = 1
	ewmaStateVersion     = 1
)

// Snapshot encodes the window rule's incremental-sum state. The sum is
// state, not cache: a recompute from the logger would be exact while the
// live sum carries up to sumRefreshEvery incremental roundings, so
// dropping it across a restore could flip an ulp-borderline threshold
// comparison and break decision bit-identity. Serializing the sum (plus
// its validity window and refresh phase) makes the restored detector
// continue the exact float trajectory of the original.
func (w *Window) Snapshot(enc *state.Encoder) {
	enc.Begin(state.TagWindow, windowStateVersion)
	enc.Int(len(w.tau))
	enc.Bool(w.sumValid)
	enc.Int(w.sumFrom)
	enc.Int(w.sumStep)
	enc.Int(w.sinceRefresh)
	enc.F64s(w.sum)
}

// Restore replaces the window rule's incremental-sum state from a snapshot
// of an identically configured detector (same threshold dimension).
func (w *Window) Restore(dec *state.Decoder) error {
	dec.Expect(state.TagWindow, windowStateVersion)
	n := dec.Int()
	sumValid := dec.Bool()
	sumFrom := dec.Int()
	sumStep := dec.Int()
	sinceRefresh := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(w.tau) {
		return fmt.Errorf("detect: snapshot window dimension %d, want %d", n, len(w.tau))
	}
	dec.F64s(w.sum)
	if err := dec.Err(); err != nil {
		return err
	}
	if sinceRefresh < 0 || sinceRefresh > sumRefreshEvery {
		return fmt.Errorf("detect: snapshot refresh phase %d outside [0, %d]", sinceRefresh, sumRefreshEvery)
	}
	w.sumValid = sumValid
	w.sumFrom = sumFrom
	w.sumStep = sumStep
	w.sinceRefresh = sinceRefresh
	return nil
}

// Snapshot encodes the adaptive detector's state: the previous window size
// (which gates the complementary pass), the primed flag, and the window
// rule's incremental sum.
func (a *Adaptive) Snapshot(enc *state.Encoder) {
	enc.Begin(state.TagAdaptive, adaptiveStateVersion)
	enc.Int(a.maxWin)
	enc.Int(a.prevW)
	enc.Bool(a.primed)
	a.win.Snapshot(enc)
}

// Restore replaces the adaptive detector's state from a snapshot of an
// identically configured detector (same maximum window and threshold
// dimension).
func (a *Adaptive) Restore(dec *state.Decoder) error {
	dec.Expect(state.TagAdaptive, adaptiveStateVersion)
	maxWin := dec.Int()
	prevW := dec.Int()
	primed := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if maxWin != a.maxWin {
		return fmt.Errorf("detect: snapshot max window %d, want %d", maxWin, a.maxWin)
	}
	if prevW < 0 || prevW > maxWin {
		return fmt.Errorf("detect: snapshot window %d outside [0, %d]", prevW, maxWin)
	}
	if err := a.win.Restore(dec); err != nil {
		return err
	}
	a.prevW = prevW
	a.primed = primed
	return nil
}

// Snapshot encodes the fixed-window baseline's state (the window rule's
// incremental sum; the window size itself is configuration and is recorded
// only for validation).
func (f *Fixed) Snapshot(enc *state.Encoder) {
	enc.Begin(state.TagFixed, fixedStateVersion)
	enc.Int(f.w)
	f.win.Snapshot(enc)
}

// Restore replaces the fixed-window baseline's state from a snapshot of an
// identically configured detector.
func (f *Fixed) Restore(dec *state.Decoder) error {
	dec.Expect(state.TagFixed, fixedStateVersion)
	w := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if w != f.w {
		return fmt.Errorf("detect: snapshot fixed window %d, want %d", w, f.w)
	}
	return f.win.Restore(dec)
}

// Snapshot encodes the CUSUM statistic.
func (c *CUSUM) Snapshot(enc *state.Encoder) {
	enc.Begin(state.TagCUSUM, cusumStateVersion)
	enc.F64s(c.s)
}

// Restore replaces the CUSUM statistic from a snapshot of an identically
// configured detector (same dimension).
func (c *CUSUM) Restore(dec *state.Decoder) error {
	dec.Expect(state.TagCUSUM, cusumStateVersion)
	dec.F64s(c.s)
	return dec.Err()
}

// Snapshot encodes the EWMA statistic.
func (e *EWMA) Snapshot(enc *state.Encoder) {
	enc.Begin(state.TagEWMA, ewmaStateVersion)
	enc.F64s(e.s)
}

// Restore replaces the EWMA statistic from a snapshot of an identically
// configured detector (same dimension).
func (e *EWMA) Restore(dec *state.Decoder) error {
	dec.Expect(state.TagEWMA, ewmaStateVersion)
	dec.F64s(e.s)
	return dec.Err()
}
