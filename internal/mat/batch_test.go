package mat

import (
	"math"
	"math/rand"
	"testing"
)

// col reads vector s of b through At.
func col(b *Batch, s int) Vec {
	v := NewVec(b.Dim())
	for j := range v {
		v[j] = b.At(j, s)
	}
	return v
}

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestBatchAccessors(t *testing.T) {
	b := NewBatch(3, 4)
	if b.Dim() != 3 || b.Len() != 4 {
		t.Fatalf("shape = %dx%d", b.Dim(), b.Len())
	}
	b.Set(2, 1, 7)
	if b.At(2, 1) != 7 {
		t.Errorf("At(2,1) = %v", b.At(2, 1))
	}
	v := VecOf(1, 2, 3)
	b.SetCol(3, v)
	for i := range v {
		if got := b.At(i, 3); got != v[i] {
			t.Errorf("after SetCol, At(%d,3) = %v, want %v", i, got, v[i])
		}
	}
	if b.Row(1)[3] != 2 {
		t.Errorf("Row(1)[3] = %v", b.Row(1)[3])
	}
}

// TestMulBatchToBitIdentical pins the fleet-engine contract: every column of
// a batched product must carry exactly the bits MulVecTo produces for that
// stream alone — including counts that exercise the cache-tiling boundary.
func TestMulBatchToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 2, 3, 6} {
		for _, n := range []int{1, 7, BatchTile - 1, BatchTile, BatchTile + 3, 2*BatchTile + 5} {
			m := randDense(rng, dim, dim)
			x := NewBatch(dim, n)
			for s := 0; s < n; s++ {
				for j := 0; j < dim; j++ {
					x.Set(j, s, rng.NormFloat64())
				}
			}
			dst := NewBatch(dim, n)
			m.MulBatchTo(dst, x)

			want := NewVec(dim)
			for s := 0; s < n; s++ {
				m.MulVecTo(want, col(x, s))
				got := col(dst, s)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("dim=%d n=%d col %d row %d: batch %v != serial %v", dim, n, s, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestMulBatchAddToBitIdentical pins the accumulate kernel against
// MulVecAddTo, whose grouping (dst + full private dot product) differs from
// a naive in-place axpy — the difference the scratch-tile accumulator
// exists to avoid.
func TestMulBatchAddToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, shape := range [][2]int{{1, 1}, {3, 1}, {3, 2}, {6, 4}} {
		rows, cols := shape[0], shape[1]
		for _, n := range []int{1, 5, BatchTile, BatchTile + 9} {
			m := randDense(rng, rows, cols)
			x := NewBatch(cols, n)
			dst := NewBatch(rows, n)
			serial := make([]Vec, n)
			for s := 0; s < n; s++ {
				for j := 0; j < cols; j++ {
					x.Set(j, s, rng.NormFloat64())
				}
				serial[s] = NewVec(rows)
				for i := 0; i < rows; i++ {
					v := rng.NormFloat64()
					dst.Set(i, s, v)
					serial[s][i] = v
				}
			}
			m.MulBatchAddTo(dst, x)

			for s := 0; s < n; s++ {
				m.MulVecAddTo(serial[s], col(x, s))
				got := col(dst, s)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(serial[s][i]) {
						t.Fatalf("%dx%d n=%d col %d row %d: batch %v != serial %v", rows, cols, n, s, i, got[i], serial[s][i])
					}
				}
			}
		}
	}
}

// Non-finite inputs must flow through the batch kernels exactly as through
// the vector kernels (no zero-skip shortcuts that would turn 0*Inf into 0).
func TestMulBatchToNonFinite(t *testing.T) {
	m := FromRows([][]float64{{0, 1}, {1, 0}})
	x := NewBatch(2, 2)
	x.SetCol(0, VecOf(math.Inf(1), 2))
	x.SetCol(1, VecOf(math.NaN(), -1))
	dst := NewBatch(2, 2)
	m.MulBatchTo(dst, x)
	want := NewVec(2)
	for s := 0; s < 2; s++ {
		m.MulVecTo(want, col(x, s))
		got := col(dst, s)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("col %d row %d: batch %x != serial %x", s, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

func TestMulBatchToShapePanics(t *testing.T) {
	m := Identity(3)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"x dim", func() { m.MulBatchTo(NewBatch(3, 2), NewBatch(2, 2)) }},
		{"dst dim", func() { m.MulBatchTo(NewBatch(2, 2), NewBatch(3, 2)) }},
		{"count", func() { m.MulBatchTo(NewBatch(3, 2), NewBatch(3, 3)) }},
		{"alias", func() { b := NewBatch(3, 2); m.MulBatchTo(b, b) }},
		{"add x dim", func() { m.MulBatchAddTo(NewBatch(3, 2), NewBatch(2, 2)) }},
		{"add alias", func() { b := NewBatch(3, 2); m.MulBatchAddTo(b, b) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestMulBatchToAllocFree(t *testing.T) {
	m := randDense(rand.New(rand.NewSource(7)), 4, 4)
	x, dst := NewBatch(4, 300), NewBatch(4, 300)
	if allocs := testing.AllocsPerRun(50, func() {
		m.MulBatchTo(dst, x)
		m.MulBatchAddTo(dst, x)
		m.MulBatchRangeTo(dst, x, 3, 299)
		m.MulBatchAddRangeTo(dst, x, 3, 299)
	}); allocs != 0 {
		t.Errorf("batch kernels allocate %v per run, want 0", allocs)
	}
}

// TestMulBatchRangeToBitIdentical pins the range kernels the fused
// multi-kernel sweep is built from: columns inside [s0, s1) carry exactly
// the bits of the full-batch kernels (and therefore of MulVecTo /
// MulVecAddTo), and columns outside the range are untouched. Ranges are
// chosen to start and end off tile boundaries, inside a single tile, and
// across several tiles.
func TestMulBatchRangeToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const dim = 3
	n := 2*BatchTile + 17
	m := randDense(rng, dim, dim)
	x := NewBatch(dim, n)
	for s := 0; s < n; s++ {
		for j := 0; j < dim; j++ {
			x.Set(j, s, rng.NormFloat64())
		}
	}
	full := NewBatch(dim, n)
	m.MulBatchTo(full, x)
	fullAdd := NewBatch(dim, n)
	m.MulBatchAddTo(fullAdd, x)

	const sentinel = -1234.5
	for _, r := range [][2]int{
		{0, n},                         // whole batch
		{5, 9},                         // inside the first tile
		{BatchTile - 3, BatchTile + 3}, // straddles one tile boundary
		{7, 2*BatchTile + 1},           // crosses two boundaries, both ends misaligned
		{2 * BatchTile, n},             // the ragged last tile alone
	} {
		s0, s1 := r[0], r[1]
		dst := NewBatch(dim, n)
		for j := 0; j < dim; j++ {
			row := dst.Row(j)
			for s := range row {
				row[s] = sentinel
			}
		}
		m.MulBatchRangeTo(dst, x, s0, s1)
		dstAdd := NewBatch(dim, n) // zero-initialized, so += matches fullAdd
		m.MulBatchAddRangeTo(dstAdd, x, s0, s1)
		for j := 0; j < dim; j++ {
			got, want := dst.Row(j), full.Row(j)
			gotAdd, wantAdd := dstAdd.Row(j), fullAdd.Row(j)
			for s := 0; s < n; s++ {
				in := s >= s0 && s < s1
				if in && math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("range [%d,%d) col %d row %d: %v != full %v", s0, s1, s, j, got[s], want[s])
				}
				if !in && got[s] != sentinel {
					t.Fatalf("range [%d,%d) wrote outside the range at col %d row %d", s0, s1, s, j)
				}
				if in && math.Float64bits(gotAdd[s]) != math.Float64bits(wantAdd[s]) {
					t.Fatalf("add range [%d,%d) col %d row %d: %v != full %v", s0, s1, s, j, gotAdd[s], wantAdd[s])
				}
				if !in && gotAdd[s] != 0 {
					t.Fatalf("add range [%d,%d) wrote outside the range at col %d row %d", s0, s1, s, j)
				}
			}
		}
	}
}

// TestMulBatchRangeToPanics pins the range-fault contract.
func TestMulBatchRangeToPanics(t *testing.T) {
	m := Identity(3)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"negative s0", func() { m.MulBatchRangeTo(NewBatch(3, 4), NewBatch(3, 4), -1, 2) }},
		{"s1 past end", func() { m.MulBatchRangeTo(NewBatch(3, 4), NewBatch(3, 4), 0, 5) }},
		{"inverted", func() { m.MulBatchRangeTo(NewBatch(3, 4), NewBatch(3, 4), 3, 2) }},
		{"empty", func() { m.MulBatchRangeTo(NewBatch(3, 4), NewBatch(3, 4), 2, 2) }},
		{"add inverted", func() { m.MulBatchAddRangeTo(NewBatch(3, 4), NewBatch(3, 4), 3, 2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}
