package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix.
//
// The zero value is not useful; construct with NewDense, FromRows, Identity,
// or Diag. All arithmetic methods return fresh matrices and never alias their
// receivers, so call sites can freely retain results.
type Dense struct {
	rows, cols int
	data       []float64 // len rows*cols, row-major
}

// NewDense returns a rows x cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: NewDense with non-positive shape %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows with empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: FromRows ragged row %d: %d vs %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with the given diagonal entries.
func Diag(d ...float64) *Dense {
	m := NewDense(len(d), len(d))
	for i, x := range d {
		m.data[i*len(d)+i] = x
	}
	return m
}

// ColVec returns an n x 1 matrix holding v.
func ColVec(v Vec) *Dense {
	m := NewDense(len(v), 1)
	copy(m.data, v)
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the (i, j) entry.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the (i, j) entry.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i as a Vec.
func (m *Dense) Row(i int) Vec {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return VecOf(m.data[i*m.cols : (i+1)*m.cols]...)
}

// Col returns a copy of column j as a Vec.
func (m *Dense) Col(j int) Vec {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	v := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		v[i] = m.data[i*m.cols+j]
	}
	return v
}

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	m.mustSameShape(b)
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] + b.data[i]
	}
	return out
}

// Sub returns m - b.
func (m *Dense) Sub(b *Dense) *Dense {
	m.mustSameShape(b)
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - b.data[i]
	}
	return out
}

// Scale returns c*m.
func (m *Dense) Scale(c float64) *Dense {
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = c * m.data[i]
	}
	return out
}

// Mul returns the matrix product m * b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, a := range mrow {
			//awdlint:allow floateq -- sparsity fast path: skipping exact zeros changes no result bit
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, x := range brow {
				orow[j] += a * x
			}
		}
	}
	return out
}

// MulVec returns m * v.
func (m *Dense) MulVec(v Vec) Vec {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	out := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecTo computes m * v into dst without allocating. The summation order
// matches MulVec exactly, so results are bit-identical to the allocating
// kernel. dst must not alias v; shape mismatches and aliasing panic
// (programmer error, caught at construction time by every caller in this
// repo).
func (m *Dense) MulVecTo(dst, v Vec) {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVecTo shape mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecTo dst length %d, want %d", len(dst), m.rows))
	}
	if len(dst) > 0 && len(v) > 0 && &dst[0] == &v[0] {
		panic("mat: MulVecTo dst aliases v")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
}

// MulVecAddTo accumulates dst += m * v without allocating; the per-row dot
// product uses the same summation order as MulVec. dst must not alias v.
func (m *Dense) MulVecAddTo(dst, v Vec) {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVecAddTo shape mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecAddTo dst length %d, want %d", len(dst), m.rows))
	}
	if len(dst) > 0 && len(v) > 0 && &dst[0] == &v[0] {
		panic("mat: MulVecAddTo dst aliases v")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] += s
	}
}

// T returns the transpose of m.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Pow returns m^k for k >= 0 by binary exponentiation. m must be square.
// Pow(m, 0) is the identity.
func (m *Dense) Pow(k int) *Dense {
	m.mustSquare()
	if k < 0 {
		panic("mat: Pow with negative exponent")
	}
	result := Identity(m.rows)
	base := m.Clone()
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		k >>= 1
		if k > 0 {
			base = base.Mul(base)
		}
	}
	return result
}

// Powers returns the slice [I, m, m², …, m^k], sharing no storage between
// entries. It is the building block for the precomputed reachability tables.
func (m *Dense) Powers(k int) []*Dense {
	m.mustSquare()
	if k < 0 {
		panic("mat: Powers with negative exponent")
	}
	out := make([]*Dense, k+1)
	out[0] = Identity(m.rows)
	for i := 1; i <= k; i++ {
		out[i] = out[i-1].Mul(m)
	}
	return out
}

// NormInf returns the operator infinity-norm: max absolute row sum.
func (m *Dense) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for _, x := range m.data[i*m.cols : (i+1)*m.cols] {
			s += math.Abs(x)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// Norm1 returns the operator 1-norm: max absolute column sum.
func (m *Dense) Norm1() float64 {
	max := 0.0
	for j := 0; j < m.cols; j++ {
		s := 0.0
		for i := 0; i < m.rows; i++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	return Vec(m.data).Norm2()
}

// Equal reports whether m and b share shape and agree entry-wise within tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if !ApproxEq(m.data[i], b.data[i], tol) {
			return false
		}
	}
	return true
}

func (m *Dense) mustSameShape(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

func (m *Dense) mustSquare() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: %dx%d matrix is not square", m.rows, m.cols))
	}
}

// String renders the matrix one row per line.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.data[i*m.cols+j])
		}
		b.WriteString("]")
		if i < m.rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
