package reach

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/noise"
)

// Quick-generated soundness: for randomly generated stable 2-D plants,
// input boxes, and initial states, simulated admissible trajectories must
// stay inside the Eq. (4)/(5) over-approximation at every step. This is the
// repository's most important invariant — a violation would make the
// "conservatively safe" guarantee (Definition 3.1) false.
func TestQuickReachSoundnessRandomSystems(t *testing.T) {
	trial := 0
	f := func(aRaw [4]int8, bRaw [2]uint8, uRaw [2]uint8, x0Raw [2]int8, epsRaw uint8) bool {
		trial++
		// Build a contraction-scaled A (entries in [−1.27, 1.27] scaled by
		// 0.6 keeps most draws stable; stability is not actually required
		// for soundness, only boundedness over the horizon).
		a := mat.FromRows([][]float64{
			{float64(aRaw[0]) / 100 * 0.6, float64(aRaw[1]) / 100 * 0.6},
			{float64(aRaw[2]) / 100 * 0.6, float64(aRaw[3]) / 100 * 0.6},
		})
		bm := mat.ColVec(mat.VecOf(float64(bRaw[0])/200, float64(bRaw[1])/200))
		sys, err := lti.New(a, bm, nil, 0.02)
		if err != nil {
			return false
		}
		uLo := -float64(uRaw[0]) / 50
		uHi := float64(uRaw[1]) / 50
		if uHi < uLo {
			uLo, uHi = uHi, uLo
		}
		u := geom.BoxFromBounds([]float64{uLo}, []float64{uHi})
		eps := float64(epsRaw) / 2000
		const horizon = 12
		an, err := New(sys, u, eps, horizon)
		if err != nil {
			return false
		}
		x0 := mat.VecOf(float64(x0Raw[0])/20, float64(x0Raw[1])/20)

		src := noise.NewSource(uint64(trial))
		ball := noise.NewBall(uint64(trial)+1000, 2, eps)
		x := x0.Clone()
		for tt := 1; tt <= horizon; tt++ {
			uv := mat.VecOf(src.Uniform(uLo, uHi+1e-300))
			x = sys.Step(x, uv, ball.Sample(tt))
			box, err := an.ReachBox(x0, tt)
			if err != nil || !box.Inflate(1e-9).Contains(x) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Quick-generated agreement: on random 2-D plants the precomputed tables
// must reproduce NaiveReachBox, which rebuilds Eq. (2) from scratch, at
// ε = 0 and at a drawn ε > 0, and FirstUnsafe must find the step a naive
// scan over a drawn safe box finds.
func TestQuickNaiveBoxAgreementRandomSystems(t *testing.T) {
	const horizon = 8
	// naiveFirstUnsafe scans NaiveReachBox for the first step in
	// 1..horizon whose box leaves safe; horizon+1 means never.
	naiveFirstUnsafe := func(sys *lti.System, u geom.Box, eps float64, x0 mat.Vec, safe geom.Box) int {
		for tt := 1; tt <= horizon; tt++ {
			if !safe.ContainsBox(NaiveReachBox(sys, u, eps, x0, tt)) {
				return tt
			}
		}
		return horizon + 1
	}
	f := func(aRaw [4]int8, x0Raw [2]int8, epsRaw uint8, safeRaw [4]uint8) bool {
		a := mat.FromRows([][]float64{
			{float64(aRaw[0]) / 100, float64(aRaw[1]) / 100},
			{float64(aRaw[2]) / 100, float64(aRaw[3]) / 100},
		})
		bm := mat.Diag(0.1, 0.05)
		sys, err := lti.New(a, bm, nil, 0.02)
		if err != nil {
			return false
		}
		u := geom.UniformBox(2, -1, 1)
		x0 := mat.VecOf(float64(x0Raw[0])/10, float64(x0Raw[1])/10)
		lo := []float64{-0.25 - float64(safeRaw[0])/37, -0.25 - float64(safeRaw[1])/37}
		hi := []float64{0.25 + float64(safeRaw[2])/37, 0.25 + float64(safeRaw[3])/37}
		for _, eps := range []float64{0, 0.001 + float64(epsRaw)/1000} {
			an, err := New(sys, u, eps, horizon)
			if err != nil {
				return false
			}
			for tt := 0; tt <= horizon; tt++ {
				got, err := an.ReachBox(x0, tt)
				if err != nil {
					return false
				}
				want := NaiveReachBox(sys, u, eps, x0, tt)
				for d := 0; d < 2; d++ {
					g, w := got.Interval(d), want.Interval(d)
					tol := 1e-9 * (1 + math.Abs(w.Lo) + math.Abs(w.Hi))
					if math.Abs(g.Lo-w.Lo) > tol || math.Abs(g.Hi-w.Hi) > tol {
						return false
					}
				}
			}
			// The tables and the oracle sum in different orders, so a bound
			// within rounding of a safe face may land on either side: the
			// search must fall between the scans of the box shrunk and grown
			// by that rounding.
			const slack = 1e-9
			first, found, err := an.FirstUnsafe(x0, 0, geom.BoxFromBounds(lo, hi))
			if err != nil {
				return false
			}
			if !found {
				first = horizon + 1
			}
			early := naiveFirstUnsafe(sys, u, eps, x0, geom.BoxFromBounds(
				[]float64{lo[0] + slack, lo[1] + slack}, []float64{hi[0] - slack, hi[1] - slack}))
			late := naiveFirstUnsafe(sys, u, eps, x0, geom.BoxFromBounds(
				[]float64{lo[0] - slack, lo[1] - slack}, []float64{hi[0] + slack, hi[1] + slack}))
			if first < early || first > late {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
