package mat

import "fmt"

// BatchTile is the stream-tile width (columns per cache block) the batch
// kernels process at a time: 256 float64s = 2 KiB per component row, so a
// full x-tile plus dst-tile for the bundled plants (state dimension ≤ 8)
// stays resident in L1 while every matrix row streams over it. It is
// exported so downstream batch loops align to the same tile: the fused
// lti.PredictBatchTo sweep blocks by it, and a fleet engine shard holds
// at most one tile of streams, so each batch keeps one tile's working set
// resident across fused kernels.
const BatchTile = 256

// Batch is a struct-of-arrays block of n vectors sharing dimension dim:
// component j of every vector is contiguous in row j (data[j*n : (j+1)*n]).
// It is the memory layout the fleet batch kernels use so one plant matrix
// is streamed through cache once per batch instead of once per stream.
//
// A Batch is a plain buffer with no synchronization; concurrent use
// requires external coordination (each fleet shard owns its blocks and is
// processed by one worker at a time).
type Batch struct {
	dim, n  int
	data    []float64
	scratch []float64 // one tile row for MulBatchAddTo's grouping-preserving accumulator
}

// NewBatch returns a zeroed dim x n block.
func NewBatch(dim, n int) *Batch {
	if dim <= 0 || n <= 0 {
		panic(fmt.Sprintf("mat: NewBatch with non-positive shape %dx%d", dim, n))
	}
	tile := n
	if tile > BatchTile {
		tile = BatchTile
	}
	return &Batch{dim: dim, n: n, data: make([]float64, dim*n), scratch: make([]float64, tile)}
}

// Resize reshapes the block to hold n vectors of the same dimension,
// reusing the existing storage whenever capacity allows — the fleet shards
// call this once per batch with the batch's stream count, so steady-state
// processing never allocates. Contents become unspecified; callers must
// overwrite every column they read back.
func (b *Batch) Resize(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("mat: Batch Resize to non-positive count %d", n))
	}
	if need := b.dim * n; cap(b.data) < need {
		b.data = make([]float64, need)
	} else {
		b.data = b.data[:need]
	}
	b.n = n
	tile := n
	if tile > BatchTile {
		tile = BatchTile
	}
	if len(b.scratch) < tile {
		b.scratch = make([]float64, tile)
	}
}

// Dim returns the vector dimension (rows).
func (b *Batch) Dim() int { return b.dim }

// Len returns the number of vectors in the block (columns).
func (b *Batch) Len() int { return b.n }

// Row returns component j across all vectors, aliasing the block's storage.
func (b *Batch) Row(j int) []float64 {
	if j < 0 || j >= b.dim {
		panic(fmt.Sprintf("mat: Batch row %d out of range for dimension %d", j, b.dim))
	}
	return b.data[j*b.n : (j+1)*b.n]
}

// At returns component j of vector s.
func (b *Batch) At(j, s int) float64 {
	b.boundsCheck(j, s)
	return b.data[j*b.n+s]
}

// Set assigns component j of vector s.
func (b *Batch) Set(j, s int, v float64) {
	b.boundsCheck(j, s)
	b.data[j*b.n+s] = v
}

func (b *Batch) boundsCheck(j, s int) {
	if j < 0 || j >= b.dim || s < 0 || s >= b.n {
		panic(fmt.Sprintf("mat: Batch index (%d,%d) out of range for %dx%d block", j, s, b.dim, b.n))
	}
}

// SetCol scatters v into column s (vector s of the block).
func (b *Batch) SetCol(s int, v Vec) {
	if len(v) != b.dim {
		panic(fmt.Sprintf("mat: Batch SetCol dimension %d, want %d", len(v), b.dim))
	}
	if s < 0 || s >= b.n {
		panic(fmt.Sprintf("mat: Batch column %d out of range for %d vectors", s, b.n))
	}
	for j, x := range v {
		b.data[j*b.n+s] = x
	}
}

// checkMulShapes validates one batch-kernel call site; op names the kernel
// in the panic message. Shape and aliasing faults are programmer errors
// caught at construction time by every caller in this repo.
func (m *Dense) checkMulShapes(op string, dst, x *Batch) {
	if x.dim != m.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d * %dx%d", op, m.rows, m.cols, x.dim, x.n))
	}
	if dst.dim != m.rows {
		panic(fmt.Sprintf("mat: %s dst dimension %d, want %d", op, dst.dim, m.rows))
	}
	if dst.n != x.n {
		panic(fmt.Sprintf("mat: %s dst has %d vectors, x has %d", op, dst.n, x.n))
	}
	if &dst.data[0] == &x.data[0] {
		panic(fmt.Sprintf("mat: %s dst aliases x", op))
	}
}

// checkRange validates a [s0, s1) column range for a range kernel.
func (b *Batch) checkRange(op string, s0, s1 int) {
	if s0 < 0 || s1 > b.n || s0 >= s1 {
		panic(fmt.Sprintf("mat: %s column range [%d,%d) invalid for %d vectors", op, s0, s1, b.n))
	}
}

// mulTile computes dst[:, s0:s1) = m * x[:, s0:s1) for one stream tile.
// No validation: callers have checked shapes, aliasing, and the range.
func (m *Dense) mulTile(dst, x *Batch, s0, s1 int) {
	n := x.n
	for i := 0; i < m.rows; i++ {
		out := dst.data[i*n+s0 : i*n+s1]
		for k := range out {
			out[k] = 0
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			xr := x.data[j*n+s0 : j*n+s1]
			for k, v := range xr {
				out[k] += a * v
			}
		}
	}
}

// mulAddTile accumulates dst[:, s0:s1) += m * x[:, s0:s1) for one stream
// tile, summing each output component into dst's scratch tile first so the
// floating-point grouping — dst + (sum over j) — matches MulVecAddTo
// bit-for-bit per column. s1-s0 must not exceed len(dst.scratch) (both are
// capped at BatchTile by construction).
func (m *Dense) mulAddTile(dst, x *Batch, s0, s1 int) {
	n := x.n
	tmp := dst.scratch[:s1-s0]
	for i := 0; i < m.rows; i++ {
		for k := range tmp {
			tmp[k] = 0
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			xr := x.data[j*n+s0 : j*n+s1]
			for k, v := range xr {
				tmp[k] += a * v
			}
		}
		out := dst.data[i*n+s0 : i*n+s1]
		for k, v := range tmp {
			out[k] += v
		}
	}
}

// MulBatchRangeTo computes dst[:,s] = m * x[:,s] for the column range
// [s0, s1) only, cache-blocked over BatchTile-wide stream tiles. It is the
// building block fused multi-kernel sweeps (lti.System.PredictBatchTo) use
// to keep one stream tile's dst block L1-resident across consecutive
// kernels instead of sweeping the whole batch once per kernel. The
// per-column summation order is exactly MulVecTo's (accumulate over
// j = 0..cols-1 starting from zero), so each column is bit-identical to a
// standalone MulVecTo call — the property the fleet engine's differential
// tests pin. dst must not alias x; shape, aliasing, and range faults panic.
func (m *Dense) MulBatchRangeTo(dst, x *Batch, s0, s1 int) {
	m.checkMulShapes("MulBatchRangeTo", dst, x)
	dst.checkRange("MulBatchRangeTo", s0, s1)
	for t0 := s0; t0 < s1; t0 += BatchTile {
		t1 := t0 + BatchTile
		if t1 > s1 {
			t1 = s1
		}
		m.mulTile(dst, x, t0, t1)
	}
}

// MulBatchAddRangeTo accumulates dst[:,s] += m * x[:,s] for the column
// range [s0, s1) only, with MulVecAddTo's grouped summation per column (see
// MulBatchAddTo). dst must not alias x; shape, aliasing, and range faults
// panic.
func (m *Dense) MulBatchAddRangeTo(dst, x *Batch, s0, s1 int) {
	m.checkMulShapes("MulBatchAddRangeTo", dst, x)
	dst.checkRange("MulBatchAddRangeTo", s0, s1)
	for t0 := s0; t0 < s1; t0 += BatchTile {
		t1 := t0 + BatchTile
		if t1 > s1 {
			t1 = s1
		}
		m.mulAddTile(dst, x, t0, t1)
	}
}

// MulBatchTo computes m * x column-wise into dst: dst[:,s] = m * x[:,s] for
// every vector s, cache-blocked over stream tiles. The per-column summation
// order is exactly MulVecTo's (accumulate over j = 0..cols-1 starting from
// zero), so each column is bit-identical to a standalone MulVecTo call —
// the property the fleet engine's differential tests pin. dst must not
// alias x; shape mismatches and aliasing panic (programmer error, caught at
// construction time by every caller in this repo).
func (m *Dense) MulBatchTo(dst, x *Batch) {
	m.checkMulShapes("MulBatchTo", dst, x)
	n := x.n
	for s0 := 0; s0 < n; s0 += BatchTile {
		s1 := s0 + BatchTile
		if s1 > n {
			s1 = n
		}
		m.mulTile(dst, x, s0, s1)
	}
}

// MulBatchAddTo accumulates dst[:,s] += m * x[:,s] for every vector s.
// Like MulVecAddTo, the product for each output component is summed into a
// private accumulator first (dst's scratch tile) and added to dst in one
// operation, so the floating-point grouping — dst + (sum over j) — matches
// MulVecAddTo bit-for-bit per column. dst must not alias x.
func (m *Dense) MulBatchAddTo(dst, x *Batch) {
	m.checkMulShapes("MulBatchAddTo", dst, x)
	n := x.n
	for s0 := 0; s0 < n; s0 += BatchTile {
		s1 := s0 + BatchTile
		if s1 > n {
			s1 = n
		}
		m.mulAddTile(dst, x, s0, s1)
	}
}
