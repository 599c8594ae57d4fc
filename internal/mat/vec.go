// Package mat provides the dense linear-algebra substrate used by the
// reachability analysis, LTI simulation, and detection pipeline. It is a
// deliberately small, allocation-conscious library over float64 slices:
// vectors are []float64 wrapped in Vec, matrices are row-major Dense values.
//
// Everything in this package is pure stdlib and deterministic. The API
// mirrors the handful of operations the paper's math needs: matrix-vector
// and matrix-matrix products, matrix powers A^i, the matrix exponential for
// continuous-to-discrete conversion, and the vector norms (L1, L2, L-inf)
// that appear in the support-function bounds of Eq. (4)/(5).
package mat

import (
	"fmt"
	"math"
)

// Vec is a dense column vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// VecOf returns a vector holding a copy of the given values.
func VecOf(vals ...float64) Vec {
	v := make(Vec, len(vals))
	copy(v, vals)
	return v
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// CopyTo copies v into dst without allocating. It panics if lengths differ,
// following the package's constructor-time validation convention.
func (v Vec) CopyTo(dst Vec) {
	mustSameLen(v, dst)
	copy(dst, v)
}

// AbsDiffTo writes |a - b| element-wise into dst — the residual kernel of
// the Data Logger's hot path. dst may alias a or b. It panics on length
// mismatch.
func AbsDiffTo(dst, a, b Vec) {
	mustSameLen(a, b)
	mustSameLen(dst, a)
	for i := range dst {
		dst[i] = math.Abs(a[i] - b[i])
	}
}

// Len returns the dimension of v.
func (v Vec) Len() int { return len(v) }

// Add returns v + w as a new vector. It panics if dimensions differ.
func (v Vec) Add(w Vec) Vec {
	mustSameLen(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector. It panics if dimensions differ.
func (v Vec) Sub(w Vec) Vec {
	mustSameLen(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AddInPlace adds w into v element-wise.
func (v Vec) AddInPlace(w Vec) {
	mustSameLen(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// Scale returns c*v as a new vector.
func (v Vec) Scale(c float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// Dot returns the inner product of v and w. It panics if dimensions differ.
func (v Vec) Dot(w Vec) float64 {
	mustSameLen(v, w)
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Abs returns the element-wise absolute value of v as a new vector.
func (v Vec) Abs() Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = math.Abs(v[i])
	}
	return out
}

// Norm1 returns the L1 norm of v: sum of absolute entries.
func (v Vec) Norm1() float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v. The implementation rescales by
// the largest magnitude entry so that it neither overflows nor underflows for
// extreme values.
func (v Vec) Norm2() float64 {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	//awdlint:allow floateq -- exact: the norm is zero only when every entry is exactly zero
	if maxAbs == 0 {
		return 0
	}
	if math.IsInf(maxAbs, 0) {
		return math.Inf(1)
	}
	s := 0.0
	for _, x := range v {
		r := x / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// NormInf returns the L-infinity norm of v: the largest absolute entry.
func (v Vec) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether v and w have the same length and entries within tol.
func (v Vec) Equal(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if !ApproxEq(v[i], w[i], tol) {
			return false
		}
	}
	return true
}

// Max returns the largest entry of v. It panics on an empty vector.
func (v Vec) Max() float64 {
	if len(v) == 0 {
		panic("mat: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest entry of v. It panics on an empty vector.
func (v Vec) Min() float64 {
	if len(v) == 0 {
		panic("mat: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Basis returns the i-th standard basis vector of dimension n (e_i).
func Basis(n, i int) Vec {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("mat: Basis index %d out of range for dimension %d", i, n))
	}
	v := make(Vec, n)
	v[i] = 1
	return v
}

func mustSameLen(v, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// String implements fmt.Stringer with a compact bracketed rendering.
func (v Vec) String() string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.6g", x)
	}
	return s + "]"
}
