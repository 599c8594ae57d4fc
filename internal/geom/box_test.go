package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(-1, 3)
	if !iv.Contains(0) || !iv.Contains(-1) || !iv.Contains(3) {
		t.Error("Contains endpoints/interior failed")
	}
	if iv.Contains(3.0001) || iv.Contains(-1.0001) {
		t.Error("Contains outside failed")
	}
	if iv.Width() != 4 || iv.Center() != 1 {
		t.Errorf("Width/Center = %v/%v", iv.Width(), iv.Center())
	}
	if !iv.Bounded() {
		t.Error("Bounded = false")
	}
}

func TestIntervalInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInterval(1, 0)
}

func TestIntervalNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInterval(math.NaN(), 1)
}

func TestWholeInterval(t *testing.T) {
	w := Whole()
	if !w.Contains(1e300) || !w.Contains(-1e300) {
		t.Error("Whole should contain everything")
	}
	if w.Bounded() {
		t.Error("Whole should be unbounded")
	}
}

func TestIntervalIntersects(t *testing.T) {
	a := NewInterval(0, 2)
	cases := []struct {
		b    Interval
		want bool
	}{
		{NewInterval(1, 3), true},
		{NewInterval(2, 3), true},  // touching
		{NewInterval(-1, 0), true}, // touching
		{NewInterval(2.1, 3), false},
		{NewInterval(-3, -0.1), false},
		{Whole(), true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("[0,2] intersects %v = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestBoxContains(t *testing.T) {
	b := BoxFromBounds([]float64{-1, -2}, []float64{1, 2})
	if !b.Contains(mat.VecOf(0, 0)) || !b.Contains(mat.VecOf(1, -2)) {
		t.Error("Contains failed for inside points")
	}
	if b.Contains(mat.VecOf(1.1, 0)) {
		t.Error("Contains failed for outside point")
	}
}

func TestBoxUnboundedDimensions(t *testing.T) {
	// Table 1 style: z ∈ [[-inf,-inf,-2.5],[inf,inf,2.5]]
	b := BoxFromBounds(
		[]float64{math.Inf(-1), math.Inf(-1), -2.5},
		[]float64{math.Inf(1), math.Inf(1), 2.5},
	)
	if !b.Contains(mat.VecOf(1e9, -1e9, 0)) {
		t.Error("unbounded dims should contain anything")
	}
	if b.Contains(mat.VecOf(0, 0, 2.6)) {
		t.Error("bounded dim should still constrain")
	}
	if b.Bounded() {
		t.Error("Bounded should be false")
	}
}

func TestBoxIntersects(t *testing.T) {
	a := UniformBox(2, 0, 1)
	if !a.Intersects(UniformBox(2, 0.5, 2)) {
		t.Error("overlapping boxes should intersect")
	}
	if !a.Intersects(UniformBox(2, 1, 2)) {
		t.Error("touching boxes should intersect")
	}
	// Disjoint in just one dimension is enough to not intersect.
	b := BoxFromBounds([]float64{0.2, 5}, []float64{0.8, 6})
	if a.Intersects(b) {
		t.Error("boxes disjoint in dim 1 should not intersect")
	}
}

func TestBoxContainsBox(t *testing.T) {
	outer := UniformBox(2, -2, 2)
	if !outer.ContainsBox(UniformBox(2, -1, 1)) {
		t.Error("ContainsBox inner failed")
	}
	if outer.ContainsBox(UniformBox(2, -3, 0)) {
		t.Error("ContainsBox overflow failed")
	}
}

func TestBoxCenterHalfWidths(t *testing.T) {
	// Sec 3.2.2: c_i = (u+l)/2, γ_i = (u-l)/2.
	b := BoxFromBounds([]float64{-3, 1}, []float64{3, 5})
	if !b.Center().Equal(mat.VecOf(0, 3), 0) {
		t.Errorf("Center = %v", b.Center())
	}
	if !b.HalfWidths().Equal(mat.VecOf(3, 2), 0) {
		t.Errorf("HalfWidths = %v", b.HalfWidths())
	}
}

func TestBoxInflate(t *testing.T) {
	b := UniformBox(2, -1, 1).Inflate(0.5)
	if b.Interval(0).Lo != -1.5 || b.Interval(0).Hi != 1.5 {
		t.Errorf("Inflate = %v", b)
	}
}

func TestBoxLoHi(t *testing.T) {
	b := BoxFromBounds([]float64{-1, -2}, []float64{3, 4})
	if !b.Lo().Equal(mat.VecOf(-1, -2), 0) || !b.Hi().Equal(mat.VecOf(3, 4), 0) {
		t.Errorf("Lo/Hi = %v/%v", b.Lo(), b.Hi())
	}
}

func TestEmptyBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBox()
}

// Property: box intersection is symmetric.
func TestBoxIntersectsSymmetricProperty(t *testing.T) {
	f := func(alo, ahi, blo, bhi [3]float64) bool {
		a := make([]Interval, 3)
		b := make([]Interval, 3)
		for i := 0; i < 3; i++ {
			a[i] = Interval{Lo: math.Min(alo[i], ahi[i]), Hi: math.Max(alo[i], ahi[i])}
			b[i] = Interval{Lo: math.Min(blo[i], bhi[i]), Hi: math.Max(blo[i], bhi[i])}
		}
		ba, bb := NewBox(a...), NewBox(b...)
		return ba.Intersects(bb) == bb.Intersects(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a box contains its own center and corners (bounded boxes).
func TestBoxContainsOwnGeometryProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		lo := mat.VecOf(r.NormFloat64(), r.NormFloat64())
		hi := lo.Add(mat.VecOf(r.Float64(), r.Float64()))
		b := BoxFromBounds(lo, hi)
		if !b.Contains(b.Center()) || !b.Contains(b.Lo()) || !b.Contains(b.Hi()) {
			t.Fatalf("trial %d: box does not contain own geometry", trial)
		}
	}
}
