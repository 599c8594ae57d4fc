package logger

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// fill logs steps 0..n-1 with distinguishable estimates (value == step).
func fill(t *testing.T, l *Logger, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		must(l.Observe(mat.VecOf(float64(i)), nil))
	}
}

// walkSum adds the residuals of [from, to] one Residual call at a time, in
// ascending step order: the reference AddResiduals must match bit for bit.
func walkSum(t *testing.T, l *Logger, from, to int) float64 {
	t.Helper()
	sum := 0.0
	for s := from; s <= to; s++ {
		r, ok := l.Residual(s)
		if !ok {
			t.Fatalf("Residual(%d) not retained", s)
		}
		sum += r[0]
	}
	return sum
}

// TestAddResidualsWrapBoundary drives the ring past capacity so the oldest
// retained step sits mid-slab, then sums a range that crosses the slab's
// end: the sum must equal the ascending step-by-step walk bit for bit.
// The residuals are order-sensitive fractions, so a sum that visited the
// two segments out of order would differ in the last bits.
func TestAddResidualsWrapBoundary(t *testing.T) {
	l := New(testSys(t), 4)  // ring capacity maxWin+2 = 6
	for i := 0; i < 9; i++ { // retained steps 3..8, start mid-ring
		must(l.Observe(mat.VecOf(math.Sqrt(float64(7*i+1))*1e3), nil))
	}
	first := l.Current() - l.Len() + 1
	if first != 3 {
		t.Fatalf("oldest retained step = %d, want 3", first)
	}
	if off, _ := l.offset(4); off+5*2*l.n <= len(l.slab) {
		t.Fatalf("range [4, 8] does not wrap the slab (step 4 at offset %d of %d)", off, len(l.slab))
	}
	sum := mat.NewVec(1)
	if !l.AddResiduals(sum, 4, 8) {
		t.Fatal("AddResiduals(4, 8) not retained")
	}
	if want := walkSum(t, l, 4, 8); math.Float64bits(sum[0]) != math.Float64bits(want) {
		t.Fatalf("AddResiduals(4, 8) = %v, step-by-step walk = %v", sum[0], want)
	}

	// The sum accumulates into what the caller passed.
	if !l.AddResiduals(sum, 3, 3) {
		t.Fatal("AddResiduals(3, 3) not retained")
	}
	if want := walkSum(t, l, 4, 8) + walkSum(t, l, 3, 3); math.Float64bits(sum[0]) != math.Float64bits(want) {
		t.Fatalf("accumulated sum = %v, want %v", sum[0], want)
	}

	// The full retained range, the evicted step just before it, the
	// unlogged step after it, and a sum of the wrong dimension. A refused
	// range adds nothing.
	if !l.AddResiduals(mat.NewVec(1), 3, 8) {
		t.Error("full retained range rejected")
	}
	before := sum[0]
	if l.AddResiduals(sum, 2, 8) {
		t.Error("range including evicted step 2 accepted")
	}
	if l.AddResiduals(sum, 3, 9) {
		t.Error("range including unlogged step 9 accepted")
	}
	if sum[0] != before {
		t.Errorf("refused range changed the sum: %v, want %v", sum[0], before)
	}
	if l.AddResiduals(mat.NewVec(2), 3, 8) {
		t.Error("sum of the wrong dimension accepted")
	}
}

// TestAddResidualsSingleStep pins the from==to degenerate case on both
// sides of the wrap point: exactly that step's residual is added.
func TestAddResidualsSingleStep(t *testing.T) {
	l := New(testSys(t), 4)
	for i := 0; i < 9; i++ { // retained 3..8; steps 6.. wrapped to the front
		must(l.Observe(mat.VecOf(float64(i*i)), nil))
	}
	for step := 3; step <= 8; step++ {
		sum := mat.NewVec(1)
		if !l.AddResiduals(sum, step, step) {
			t.Fatalf("AddResiduals(%d, %d) not retained", step, step)
		}
		// x_{t+1} = x_t under nil input, so the residual is s² − (s−1)².
		if want := float64(2*step - 1); sum[0] != want {
			t.Fatalf("AddResiduals(%d, %d) = %v, want %v", step, step, sum[0], want)
		}
		if r, _ := l.Residual(step); r[0] != sum[0] {
			t.Fatalf("Residual(%d) = %v, AddResiduals = %v", step, r[0], sum[0])
		}
	}
	// Inverted bounds are an empty request, not a one-step one.
	if l.AddResiduals(mat.NewVec(1), 5, 4) {
		t.Error("AddResiduals(5, 4) accepted inverted bounds")
	}
}

// TestAddResidualsSpansReset pins that Reset severs history: step
// numbering restarts at 0, pre-reset steps are unreachable even though
// their slots still physically hold the old values, and a range written
// before the reset never sums stale residuals.
func TestAddResidualsSpansReset(t *testing.T) {
	l := New(testSys(t), 4)
	fill(t, l, 6) // steps 0..5 retained
	if !l.AddResiduals(mat.NewVec(1), 2, 5) {
		t.Fatal("pre-reset range missing")
	}
	l.Reset()

	// Immediately after Reset nothing is retained at all.
	if l.AddResiduals(mat.NewVec(1), 0, 0) {
		t.Error("AddResiduals(0, 0) accepted on a reset logger")
	}
	if _, ok := l.Residual(0); ok {
		t.Error("Residual(0) served on a reset logger")
	}
	if l.Len() != 0 || l.Observed() != 0 || l.Released() != 0 {
		t.Fatalf("reset logger: Len=%d Observed=%d Released=%d, want 0/0/0",
			l.Len(), l.Observed(), l.Released())
	}

	// New run: three fresh observations with new values. The old range
	// [2, 5] now straddles the reset — its tail is beyond the new history
	// and must be rejected, not served from surviving slots.
	for i := 0; i < 3; i++ {
		must(l.Observe(mat.VecOf(100+float64(2*i)), nil))
	}
	if l.AddResiduals(mat.NewVec(1), 2, 5) {
		t.Error("range spanning the reset accepted")
	}
	// First residual of the new run is zero (Reset dropped the prediction
	// input), then |102 − 100| and |104 − 102|.
	sum := mat.NewVec(1)
	if !l.AddResiduals(sum, 0, 2) || sum[0] != 4 {
		t.Fatalf("post-reset sum over [0, 2] = %v, want 4", sum[0])
	}
	for i := 0; i < 3; i++ {
		e, ok := l.Entry(i)
		if !ok || e.Step != i || e.Estimate[0] != 100+float64(2*i) {
			t.Fatalf("post-reset entry %d = %+v (ok=%v), want step %d estimate %d",
				i, e, ok, i, 100+2*i)
		}
	}
	if e, ok := l.Entry(0); !ok || e.Residual[0] != 0 {
		t.Fatalf("post-reset first residual = %v (ok=%v), want 0", e.Residual, ok)
	}
}
