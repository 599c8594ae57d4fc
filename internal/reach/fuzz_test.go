package reach

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lti"
	"repro/internal/mat"
)

// FuzzReachBoundFinite fuzzes the precomputed reach bound (Eq. 4/5) the
// deadline search reads: for any finite plant in the contraction regime,
// initial state and initial-set radius, every ReachBoxFromBall bound must
// stay finite, and growing the radius must never shrink the box — a
// single rogue non-finite or inverted bound corrupts the deadline search
// silently.
func FuzzReachBoundFinite(f *testing.F) {
	f.Add(0.9, 0.1, 0.5, 1.0, 0.25, 1.0)
	f.Add(-0.5, 0.3, -1.0, 0.0, 0.0, 0.5)
	f.Fuzz(func(t *testing.T, a11, a12, x1, x2, r, grow float64) {
		for _, v := range []float64{a11, a12, x1, x2, r, grow} {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				t.Skip("inputs constrained")
			}
		}
		// Keep A a contraction so the horizon sums stay bounded.
		clamp := func(v float64) float64 { return math.Mod(v, 1) * 0.95 }
		A := mat.FromRows([][]float64{{clamp(a11), clamp(a12)}, {0, 0.5}})
		sys, err := lti.New(A, mat.ColVec(mat.VecOf(0.1, 0.2)), nil, 1)
		if err != nil {
			t.Skip(err)
		}
		an, err := New(sys, geom.UniformBox(1, -1, 1), 0.01, 6)
		if err != nil {
			t.Fatal(err)
		}
		x0 := mat.VecOf(x1, x2)
		radius := math.Abs(math.Mod(r, 10))
		wider := radius + math.Abs(math.Mod(grow, 10))

		for ti := 0; ti <= an.Horizon(); ti++ {
			box, err := an.ReachBoxFromBall(x0, radius, ti)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < box.Dim(); i++ {
				iv := box.Interval(i)
				if !iv.Bounded() {
					t.Fatalf("t=%d dim=%d: bound escaped to %v", ti, i, iv)
				}
			}
			// Monotone in the initial-set radius: a bigger trusted ball can
			// only widen the over-approximation.
			big, err := an.ReachBoxFromBall(x0, wider, ti)
			if err != nil {
				t.Fatal(err)
			}
			if !big.ContainsBox(box) {
				t.Fatalf("t=%d: radius %v box %v does not contain radius %v box %v", ti, wider, big, radius, box)
			}
		}
	})
}

// FuzzStepperMatchesReachBox fuzzes the allocation-free Stepper against the
// direct ReachBoxFromBall evaluation: bounds must agree bit-exactly at every
// step (both evaluate powers[t]·x0 with the same kernel), and the
// InsideBox / SafeSlack fast paths must agree with the materialized
// geom.Box containment check.
func FuzzStepperMatchesReachBox(f *testing.F) {
	f.Add(0.9, 0.1, 0.5, 1.0, 0.25, 2.0)
	f.Add(-0.5, 0.3, -1.0, 0.0, 0.0, 5.0)
	f.Add(0.2, -0.7, 2.0, -2.0, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, a11, a12, x1, x2, r, half float64) {
		for _, v := range []float64{a11, a12, x1, x2, r, half} {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				t.Skip("inputs constrained")
			}
		}
		clamp := func(v float64) float64 { return math.Mod(v, 1) * 0.95 }
		A := mat.FromRows([][]float64{{clamp(a11), clamp(a12)}, {0, 0.5}})
		sys, err := lti.New(A, mat.ColVec(mat.VecOf(0.1, 0.2)), nil, 1)
		if err != nil {
			t.Skip(err)
		}
		an, err := New(sys, geom.UniformBox(1, -1, 1), 0.01, 8)
		if err != nil {
			t.Fatal(err)
		}
		x0 := mat.VecOf(x1, x2)
		radius := math.Abs(math.Mod(r, 10))
		hw := math.Abs(math.Mod(half, 20))
		safe := geom.UniformBox(2, -hw, hw)

		s, err := an.Stepper(x0, radius)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := make([]float64, 2), make([]float64, 2)
		for {
			ti := s.Step()
			want, err := an.ReachBoxFromBall(x0, radius, ti)
			if err != nil {
				t.Fatal(err)
			}
			s.Bounds(lo, hi)
			for i := 0; i < 2; i++ {
				iv := want.Interval(i)
				if lo[i] != iv.Lo || hi[i] != iv.Hi {
					t.Fatalf("t=%d dim=%d: stepper [%v,%v] != direct [%v,%v]",
						ti, i, lo[i], hi[i], iv.Lo, iv.Hi)
				}
			}
			if got, ref := s.InsideBox(safe), safe.ContainsBox(want); got != ref {
				t.Fatalf("t=%d: InsideBox=%v ContainsBox=%v", ti, got, ref)
			}
			if sl := s.SafeSlack(safe); (sl >= 0) != safe.ContainsBox(want) {
				t.Fatalf("t=%d: SafeSlack sign %v disagrees with containment", ti, sl)
			}
			if !s.Advance() {
				break
			}
		}
	})
}
