// Package geom provides the set vocabulary of the paper's reachability
// analysis (Sec. 3.2): intervals and boxes, the products of intervals
// (Def. 3.3). Safe/unsafe state sets (Table 1) and control-input ranges
// are boxes; safe sets may be unbounded (±Inf) in some dimensions.
package geom

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Interval is a closed interval [Lo, Hi]. Lo may be -Inf and Hi +Inf.
type Interval struct {
	Lo, Hi float64
}

// NewInterval returns [lo, hi], panicking if lo > hi or either bound is NaN.
func NewInterval(lo, hi float64) Interval {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic("geom: NaN interval bound")
	}
	if lo > hi {
		panic(fmt.Sprintf("geom: inverted interval [%v, %v]", lo, hi))
	}
	return Interval{Lo: lo, Hi: hi}
}

// Whole returns the unbounded interval (-Inf, +Inf).
func Whole() Interval { return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)} }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Intersects reports whether two intervals overlap.
func (iv Interval) Intersects(o Interval) bool { return iv.Lo <= o.Hi && o.Lo <= iv.Hi }

// Width returns Hi - Lo (possibly +Inf).
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Center returns the midpoint; it is NaN for intervals unbounded on both
// sides and ±Inf for half-bounded intervals.
func (iv Interval) Center() float64 { return (iv.Lo + iv.Hi) / 2 }

// Bounded reports whether both endpoints are finite.
func (iv Interval) Bounded() bool {
	return !math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0)
}

// Box is an axis-aligned box: the product of per-dimension intervals
// (Definition 3.3). Dimensions may be unbounded.
type Box struct {
	ivs []Interval
}

// NewBox builds a box from per-dimension intervals.
func NewBox(ivs ...Interval) Box {
	if len(ivs) == 0 {
		panic("geom: empty box")
	}
	cp := make([]Interval, len(ivs))
	copy(cp, ivs)
	return Box{ivs: cp}
}

// BoxFromBounds builds a box from parallel lower/upper bound slices.
func BoxFromBounds(lo, hi []float64) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: bound length mismatch %d vs %d", len(lo), len(hi)))
	}
	ivs := make([]Interval, len(lo))
	for i := range lo {
		ivs[i] = NewInterval(lo[i], hi[i])
	}
	return Box{ivs: ivs}
}

// UniformBox returns an n-dimensional box with every dimension [lo, hi].
func UniformBox(n int, lo, hi float64) Box {
	ivs := make([]Interval, n)
	for i := range ivs {
		ivs[i] = NewInterval(lo, hi)
	}
	return Box{ivs: ivs}
}

// Dim returns the dimension of the box.
func (b Box) Dim() int { return len(b.ivs) }

// Interval returns the i-th dimension's interval.
func (b Box) Interval(i int) Interval { return b.ivs[i] }

// Lo returns the vector of lower bounds.
func (b Box) Lo() mat.Vec {
	v := make(mat.Vec, len(b.ivs))
	for i, iv := range b.ivs {
		v[i] = iv.Lo
	}
	return v
}

// Hi returns the vector of upper bounds.
func (b Box) Hi() mat.Vec {
	v := make(mat.Vec, len(b.ivs))
	for i, iv := range b.ivs {
		v[i] = iv.Hi
	}
	return v
}

// Center returns the center vector (see Interval.Center for unbounded dims).
func (b Box) Center() mat.Vec {
	v := make(mat.Vec, len(b.ivs))
	for i, iv := range b.ivs {
		v[i] = iv.Center()
	}
	return v
}

// HalfWidths returns the per-dimension scaling factors γ_i = (hi-lo)/2 that
// map the unit infinity-norm ball onto the centered box (Sec. 3.2.2).
func (b Box) HalfWidths() mat.Vec {
	v := make(mat.Vec, len(b.ivs))
	for i, iv := range b.ivs {
		v[i] = iv.Width() / 2
	}
	return v
}

// Contains reports whether x lies inside the box.
func (b Box) Contains(x mat.Vec) bool {
	if len(x) != len(b.ivs) {
		panic(fmt.Sprintf("geom: Contains dimension mismatch %d vs %d", len(x), len(b.ivs)))
	}
	for i, iv := range b.ivs {
		if !iv.Contains(x[i]) {
			return false
		}
	}
	return true
}

// Intersects reports whether two boxes overlap. Both must share dimension.
func (b Box) Intersects(o Box) bool {
	if b.Dim() != o.Dim() {
		panic(fmt.Sprintf("geom: Intersects dimension mismatch %d vs %d", b.Dim(), o.Dim()))
	}
	for i := range b.ivs {
		if !b.ivs[i].Intersects(o.ivs[i]) {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	if b.Dim() != o.Dim() {
		panic(fmt.Sprintf("geom: ContainsBox dimension mismatch %d vs %d", b.Dim(), o.Dim()))
	}
	for i := range b.ivs {
		if o.ivs[i].Lo < b.ivs[i].Lo || o.ivs[i].Hi > b.ivs[i].Hi {
			return false
		}
	}
	return true
}

// ContainsBounds reports whether the box with the given lower/upper bounds
// lies entirely inside b — ContainsBox without materializing a Box, for the
// allocation-free deadline search. The semantics (and comparison directions)
// match ContainsBox exactly.
func (b Box) ContainsBounds(lo, hi []float64) bool {
	if len(lo) != len(b.ivs) || len(hi) != len(b.ivs) {
		panic(fmt.Sprintf("geom: ContainsBounds dimension mismatch %d/%d vs %d", len(lo), len(hi), len(b.ivs)))
	}
	for i := range b.ivs {
		if lo[i] < b.ivs[i].Lo || hi[i] > b.ivs[i].Hi {
			return false
		}
	}
	return true
}

// Bounded reports whether every dimension is bounded.
func (b Box) Bounded() bool {
	for _, iv := range b.ivs {
		if !iv.Bounded() {
			return false
		}
	}
	return true
}

// Inflate returns the box grown by r in every dimension (Minkowski sum with
// an infinity-norm ball of radius r).
func (b Box) Inflate(r float64) Box {
	if r < 0 {
		panic("geom: negative inflation radius")
	}
	ivs := make([]Interval, len(b.ivs))
	for i, iv := range b.ivs {
		ivs[i] = Interval{Lo: iv.Lo - r, Hi: iv.Hi + r}
	}
	return Box{ivs: ivs}
}

// String renders the box as a product of intervals.
func (b Box) String() string {
	s := ""
	for i, iv := range b.ivs {
		if i > 0 {
			s += " x "
		}
		s += fmt.Sprintf("[%.4g, %.4g]", iv.Lo, iv.Hi)
	}
	return s
}
