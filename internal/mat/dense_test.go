package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("At wrong: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestNewDenseNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(0, 3)
}

func TestIdentityMul(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := Identity(2).Mul(m); !got.Equal(m, 0) {
		t.Errorf("I*m = %v", got)
	}
	if got := m.Mul(Identity(2)); !got.Equal(m, 0) {
		t.Errorf("m*I = %v", got)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestMulVecKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := a.MulVec(VecOf(1, 1)); !got.Equal(VecOf(3, 7), 1e-12) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 {
		t.Errorf("T entry wrong: %v", at)
	}
	if !at.T().Equal(a, 0) {
		t.Error("double transpose differs")
	}
}

func TestDiag(t *testing.T) {
	d := Diag(1, 2, 3)
	want := FromRows([][]float64{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}})
	if !d.Equal(want, 0) {
		t.Errorf("Diag = %v", d)
	}
}

func TestRowColAccessors(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if !a.Row(1).Equal(VecOf(3, 4), 0) {
		t.Errorf("Row = %v", a.Row(1))
	}
	if !a.Col(0).Equal(VecOf(1, 3), 0) {
		t.Errorf("Col = %v", a.Col(0))
	}
}

func TestPow(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {0, 1}})
	if got := a.Pow(0); !got.Equal(Identity(2), 0) {
		t.Errorf("Pow(0) = %v", got)
	}
	// a^k has upper-right entry k for this shear matrix.
	if got := a.Pow(5); got.At(0, 1) != 5 {
		t.Errorf("Pow(5) = %v", got)
	}
}

func TestPowersConsistentWithPow(t *testing.T) {
	a := FromRows([][]float64{{0.5, 0.1}, {-0.2, 0.9}})
	ps := a.Powers(6)
	for k, p := range ps {
		if !p.Equal(a.Pow(k), 1e-12) {
			t.Errorf("Powers[%d] differs from Pow(%d)", k, k)
		}
	}
}

func TestPowersNoAliasing(t *testing.T) {
	a := Identity(2)
	ps := a.Powers(2)
	ps[1].Set(0, 0, 99)
	if ps[0].At(0, 0) == 99 || ps[2].At(0, 0) == 99 {
		t.Error("Powers entries share storage")
	}
}

func TestOperatorNorms(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {3, 4}})
	if got := a.NormInf(); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	if got := a.Norm1(); got != 6 {
		t.Errorf("Norm1 = %v, want 6", got)
	}
	if got := a.FrobeniusNorm(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Errorf("Frobenius = %v", got)
	}
}

func TestColVec(t *testing.T) {
	m := ColVec(VecOf(1, 2, 3))
	if m.Rows() != 3 || m.Cols() != 1 || m.At(2, 0) != 3 {
		t.Errorf("ColVec = %v", m)
	}
}

func TestCloneAndEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
	if a.Equal(b, 0) {
		t.Error("Equal should be false after mutation")
	}
	if a.Equal(NewDense(2, 3), 1e9) {
		t.Error("Equal should be false for different shapes")
	}
}

func TestDenseString(t *testing.T) {
	s := FromRows([][]float64{{1, 2}, {3, 4}}).String()
	if s != "[1 2]\n[3 4]" {
		t.Errorf("String = %q", s)
	}
}

func randomDense(r *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}

// Property: (AB)v == A(Bv).
func TestMulAssociativityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a, b := randomDense(r, 4), randomDense(r, 4)
		v := VecOf(r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		lhs := a.Mul(b).MulVec(v)
		rhs := a.MulVec(b.MulVec(v))
		if !lhs.Equal(rhs, 1e-9) {
			t.Fatalf("trial %d: (AB)v=%v, A(Bv)=%v", trial, lhs, rhs)
		}
	}
}

// Property: transpose reverses products: (AB)^T = B^T A^T.
func TestTransposeProductProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a, b := randomDense(r, 3), randomDense(r, 3)
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		if !lhs.Equal(rhs, 1e-10) {
			t.Fatalf("trial %d: transpose product mismatch", trial)
		}
	}
}

// Property: matrix addition commutes element-wise (quick-generated).
func TestAddCommutesProperty(t *testing.T) {
	f := func(a, b [2][2]float64) bool {
		ma := FromRows([][]float64{a[0][:], a[1][:]})
		mb := FromRows([][]float64{b[0][:], b[1][:]})
		return ma.Add(mb).Equal(mb.Add(ma), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pow(k1+k2) == Pow(k1)*Pow(k2) for a contraction matrix.
func TestPowAdditiveProperty(t *testing.T) {
	a := FromRows([][]float64{{0.9, 0.05}, {-0.05, 0.8}})
	for k1 := 0; k1 <= 5; k1++ {
		for k2 := 0; k2 <= 5; k2++ {
			lhs := a.Pow(k1 + k2)
			rhs := a.Pow(k1).Mul(a.Pow(k2))
			if !lhs.Equal(rhs, 1e-12) {
				t.Fatalf("Pow additivity failed at %d,%d", k1, k2)
			}
		}
	}
}
