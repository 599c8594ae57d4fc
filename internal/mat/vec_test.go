package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecOfCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	v := VecOf(src...)
	src[0] = 99
	if v[0] != 1 {
		t.Fatalf("VecOf did not copy: got %v", v)
	}
}

func TestVecAddSub(t *testing.T) {
	v := VecOf(1, 2, 3)
	w := VecOf(4, 5, 6)
	if got := v.Add(w); !got.Equal(VecOf(5, 7, 9), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(VecOf(3, 3, 3), 0) {
		t.Errorf("Sub = %v", got)
	}
}

func TestVecAddDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	VecOf(1, 2).Add(VecOf(1, 2, 3))
}

func TestVecAddInPlace(t *testing.T) {
	v := VecOf(1, 2)
	v.AddInPlace(VecOf(10, 20))
	if !v.Equal(VecOf(11, 22), 0) {
		t.Errorf("AddInPlace = %v", v)
	}
}

func TestVecScaleDot(t *testing.T) {
	v := VecOf(1, -2, 3)
	if got := v.Scale(2); !got.Equal(VecOf(2, -4, 6), 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(VecOf(1, 1, 1)); got != 2 {
		t.Errorf("Dot = %v, want 2", got)
	}
}

func TestVecAbs(t *testing.T) {
	v := VecOf(-1, 2, -3)
	if got := v.Abs(); !got.Equal(VecOf(1, 2, 3), 0) {
		t.Errorf("Abs = %v", got)
	}
}

func TestNorms(t *testing.T) {
	v := VecOf(3, -4)
	if got := v.Norm1(); got != 7 {
		t.Errorf("Norm1 = %v, want 7", got)
	}
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestNorm2Extremes(t *testing.T) {
	// Values that would overflow a naive sum-of-squares.
	v := VecOf(1e200, 1e200)
	want := 1e200 * math.Sqrt2
	if got := v.Norm2(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 overflow-safe = %v, want %v", got, want)
	}
	if got := NewVec(3).Norm2(); got != 0 {
		t.Errorf("Norm2 of zero vector = %v", got)
	}
	if got := VecOf(math.Inf(1), 1).Norm2(); !math.IsInf(got, 1) {
		t.Errorf("Norm2 with +Inf entry = %v, want +Inf", got)
	}
}

func TestBasis(t *testing.T) {
	e1 := Basis(3, 1)
	if !e1.Equal(VecOf(0, 1, 0), 0) {
		t.Errorf("Basis(3,1) = %v", e1)
	}
}

func TestBasisOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Basis(2, 2)
}

func TestMaxMin(t *testing.T) {
	v := VecOf(3, -1, 2)
	if v.Max() != 3 || v.Min() != -1 {
		t.Errorf("Max/Min = %v/%v", v.Max(), v.Min())
	}
}

func TestCloneIndependence(t *testing.T) {
	v := VecOf(1, 2)
	w := v.Clone()
	w[0] = 9
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestVecString(t *testing.T) {
	if got := VecOf(1, 2.5).String(); got != "[1 2.5]" {
		t.Errorf("String = %q", got)
	}
}

// Property: triangle inequality for all three norms.
func TestNormTriangleInequalityProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		v, w := VecOf(a[:]...), VecOf(b[:]...)
		s := v.Add(w)
		const slack = 1e-9
		return s.Norm1() <= v.Norm1()+w.Norm1()+slack &&
			s.Norm2() <= v.Norm2()+w.Norm2()+slack*(1+v.Norm2()+w.Norm2()) &&
			s.NormInf() <= v.NormInf()+w.NormInf()+slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: norm ordering ||v||_inf <= ||v||_2 <= ||v||_1.
func TestNormOrderingProperty(t *testing.T) {
	f := func(a [5]float64) bool {
		v := VecOf(a[:]...)
		const slack = 1e-9
		n1, n2, ni := v.Norm1(), v.Norm2(), v.NormInf()
		return ni <= n2*(1+slack)+slack && n2 <= n1*(1+slack)+slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |v.w| <= ||v||_2 ||w||_2.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for _, x := range append(a[:], b[:]...) {
			if math.Abs(x) > 1e150 {
				return true // Dot itself would overflow; property not meaningful
			}
		}
		v, w := VecOf(a[:]...), VecOf(b[:]...)
		lhs := math.Abs(v.Dot(w))
		rhs := v.Norm2() * w.Norm2()
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaling is absolutely homogeneous for Norm2.
func TestNormHomogeneityProperty(t *testing.T) {
	f := func(a [3]float64, c float64) bool {
		if math.Abs(c) > 1e100 {
			return true // avoid overflow-dominated comparisons
		}
		v := VecOf(a[:]...)
		lhs := v.Scale(c).Norm2()
		rhs := math.Abs(c) * v.Norm2()
		diff := math.Abs(lhs - rhs)
		return diff <= 1e-9*(1+rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
