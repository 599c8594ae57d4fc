package logger

import (
	"math"
	"testing"

	"repro/internal/lti"
	"repro/internal/mat"
)

// FuzzBufferHoldRelease drives the Buffer/Hold/Release protocol
// (Sec. 3.3.2) with a fuzzer-chosen run: the first byte picks the
// maximum window w_m, then each subsequent byte contributes one
// observation (its nibbles → a 3-dimensional estimate) and one
// detection-window query (high nibble → w in [0, w_m]). The plant is
// 3-dimensional so a slot stride or half offset that is wrong in the
// logger's slab cannot hide behind n = 1.
//
// After every step the full protocol contract is re-checked against a
// shadow copy of everything ever observed:
//
//   - exactly the steps [max(0, t−w_m−1), t] are retained — a sample is
//     never lost early, never duplicated, and never outlives the window;
//   - Observed − Released == Len (conservation);
//   - every retained estimate and residual is bit-identical to the shadow
//     (residual |x̂_t − A x̂_{t−1}|, exact for this diagonal plant), through
//     Entry and through Residual;
//   - AddResiduals over every retained subrange, including the ones that
//     wrap the slab, equals the shadow's ascending sum, and refuses every
//     range that reaches a released or unlogged step;
//   - Counts/StatusOf/TrustedEstimate/Residuals agree with the shadow
//     model for the queried window.
func FuzzBufferHoldRelease(f *testing.F) {
	f.Add([]byte{3, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65})
	f.Add([]byte{1, 0xff, 0x00, 0xff, 0x00})
	f.Add([]byte{8, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("need a window byte and at least one observation")
		}
		wm := 1 + int(data[0])%8
		// Power-of-two diagonal: the prediction A x̂ is exact, so the
		// shadow residuals below are too.
		diag := mat.VecOf(0.5, -0.25, 2)
		sys, err := lti.New(mat.Diag(diag...), mat.ColVec(mat.VecOf(1, 0, 0.5)), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		l := New(sys, wm)

		// Shadow copy: fed[s] and res[s] are the estimate observed at step s
		// and its residual.
		var fed, res []mat.Vec
		for _, b := range data[1:] {
			nl, nh := int(b&0x0f), int(b>>4)
			est := mat.VecOf(float64(nl-8), float64(nh-8), float64((nl^nh)-8))
			w := nh % (wm + 1) // detection window in [0, w_m]

			e, err := l.Observe(est, mat.VecOf(0))
			if err != nil {
				t.Fatal(err)
			}
			r := mat.NewVec(3)
			if k := len(fed); k > 0 {
				for i := range r {
					r[i] = math.Abs(est[i] - diag[i]*fed[k-1][i])
				}
			}
			fed, res = append(fed, est), append(res, r)
			step := len(fed) - 1
			if e.Step != step || !bitsEqual(e.Estimate, est) || !bitsEqual(e.Residual, r) {
				t.Fatalf("Observe returned %+v, want step %d estimate %v residual %v", *e, step, est, r)
			}

			// Retention: exactly [lo, step] is live.
			lo := step - wm - 1
			if lo < 0 {
				lo = 0
			}
			if got, want := l.Len(), step-lo+1; got != want {
				t.Fatalf("step %d: Len = %d, want %d", step, got, want)
			}
			if l.Observed()-l.Released() != l.Len() {
				t.Fatalf("step %d: conservation broken: observed %d − released %d != len %d",
					step, l.Observed(), l.Released(), l.Len())
			}
			for s := 0; s <= step; s++ {
				got, ok := l.Entry(s)
				if s < lo {
					if ok {
						t.Fatalf("step %d: released sample %d still retained", step, s)
					}
					continue
				}
				if !ok {
					t.Fatalf("step %d: sample %d lost while inside the window", step, s)
				}
				if got.Step != s || !bitsEqual(got.Estimate, fed[s]) || !bitsEqual(got.Residual, res[s]) {
					t.Fatalf("step %d: entry %d corrupted: %+v, fed %v residual %v", step, s, got, fed[s], res[s])
				}
				if r, ok := l.Residual(s); !ok || !bitsEqual(r, res[s]) {
					t.Fatalf("step %d: Residual(%d) = %v, %v, want %v", step, s, r, ok, res[s])
				}
			}
			if _, ok := l.Entry(step + 1); ok {
				t.Fatalf("step %d: phantom future entry", step)
			}
			if _, ok := l.Residual(step + 1); ok {
				t.Fatalf("step %d: phantom future residual", step)
			}

			// AddResiduals: every retained subrange sums to the shadow's
			// ascending sum; a range reaching past either end adds nothing.
			for from := lo - 1; from <= step+1; from++ {
				for to := from; to <= step+1; to++ {
					sum := mat.VecOf(0.5, 0.5, 0.5)
					ok := l.AddResiduals(sum, from, to)
					want := mat.VecOf(0.5, 0.5, 0.5)
					if inside := from >= lo && to <= step; inside {
						for s := from; s <= to; s++ {
							want.AddInPlace(res[s])
						}
						if !ok {
							t.Fatalf("step %d: AddResiduals(%d, %d) refused a retained range", step, from, to)
						}
					} else if ok {
						t.Fatalf("step %d: AddResiduals(%d, %d) accepted a range outside [%d, %d]", step, from, to, lo, step)
					}
					if !bitsEqual(sum, want) {
						t.Fatalf("step %d: AddResiduals(%d, %d) sum = %v, want %v", step, from, to, sum, want)
					}
				}
			}

			// The queried window's Buffer/Hold split matches the shadow model.
			buffered, held := l.Counts(w)
			wantBuf := 0
			for s := lo; s <= step; s++ {
				if s >= step-w {
					wantBuf++
				}
			}
			if buffered != wantBuf || buffered+held != l.Len() {
				t.Fatalf("step %d w=%d: Counts = (%d,%d), want buffered %d of %d",
					step, w, buffered, held, wantBuf, l.Len())
			}
			for s := lo; s <= step; s++ {
				want := Held
				if s >= step-w {
					want = Buffered
				}
				if got := l.StatusOf(s, w); got != want {
					t.Fatalf("step %d w=%d: StatusOf(%d) = %v, want %v", step, w, s, got, want)
				}
			}
			if lo > 0 {
				if got := l.StatusOf(lo-1, w); got != Released {
					t.Fatalf("step %d: StatusOf(%d) = %v, want Released", step, lo-1, got)
				}
			}

			// Trusted estimate for w is the shadow estimate at max(0, t−w−1);
			// it must always be available because w <= w_m keeps it retained.
			trusted, ok := l.TrustedEstimate(w)
			ts := step - w - 1
			if ts < 0 {
				ts = 0
			}
			if !ok || !bitsEqual(trusted, fed[ts]) {
				t.Fatalf("step %d w=%d: TrustedEstimate = %v,%v, want %v", step, w, trusted, ok, fed[ts])
			}

			// Residuals are all-or-nothing over retention.
			if res, ok := l.Residuals(lo, step); !ok || len(res) != l.Len() {
				t.Fatalf("step %d: Residuals over live range failed (%d, %v)", step, len(res), ok)
			}
			if lo > 0 {
				if _, ok := l.Residuals(lo-1, step); ok {
					t.Fatalf("step %d: Residuals accepted a released step", step)
				}
			}
		}
	})
}

// bitsEqual reports whether two vectors hold bit-identical values.
func bitsEqual(a, b mat.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
