package deadline

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mat"
)

// certFixture builds a fresh certificate over the 1-D fixture plant (horizon
// 20) with the safe box ±bound.
func certFixture(t *testing.T, bound float64) *Certificate {
	t.Helper()
	_, an := fixture(t, 20)
	est, err := New(an, geom.UniformBox(1, -bound, bound), 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewCertificate(est)
}

// certQueryStates is a query sequence chosen to walk a certificate through
// every branch: the unanchored first query, runs of anchor hits, re-anchors
// (jumps outside the certified ball), a state outside the safe box
// (deadline 0 — its anchor has no safe prefix), and returns to earlier
// regions after the anchor moved.
var certQueryStates = []float64{
	0, 0.001, -0.002, 0.01, // anchor at 0, then hits
	5, 5.001, 4.999, // re-anchor at 5, then hits
	-8, -8.0005, // re-anchor far on the other side
	0.5, 0.499, // back near the start: anchor moved, so re-anchor again
	20,          // outside the safe box entirely (deadline 0)
	0.25, 0.251, // recover
}

// TestCertificateMatchesColdScan is the certificate's exactness gate: along
// certQueryStates every FromState deadline equals a fresh Estimator's cold
// full scan, and every query leaves the pressure reading its outcome
// defines — 0 on a fresh anchor, 1 on a dead anchor (no slack budget), and
// a value in (0, 1] on a hit. Both safe boxes are run: ±10 makes the anchor
// at 0 touch the bound exactly (a dead anchor), ±10.5 leaves it a budget.
func TestCertificateMatchesColdScan(t *testing.T) {
	_, an := fixture(t, 20)
	var fresh, dead, hits int
	for _, bound := range []float64{10, 10.5} {
		c := certFixture(t, bound)
		for i, v := range certQueryStates {
			cold, err := New(an, geom.UniformBox(1, -bound, bound), 0)
			if err != nil {
				t.Fatal(err)
			}
			want := cold.FromState(mat.VecOf(v))
			before := c.Reanchors()
			if got := c.FromState(mat.VecOf(v)); got != want {
				t.Fatalf("bound %v query %d (x=%v): certificate deadline %d, cold scan %d", bound, i, v, got, want)
			}
			p, ok := c.TakePressure()
			if !ok {
				t.Fatalf("bound %v query %d: no pressure reading", bound, i)
			}
			switch reanchored := c.Reanchors() - before; {
			case reanchored > 1:
				t.Fatalf("bound %v query %d: %d full scans for one query", bound, i, reanchored)
			case reanchored == 0:
				hits++
				if p <= 0 || p > 1 {
					t.Errorf("bound %v query %d: hit pressure %v, want in (0, 1]", bound, i, p)
				}
			case c.thr2 > 0:
				fresh++
				if p != 0 {
					t.Errorf("bound %v query %d: fresh-anchor pressure %v, want 0", bound, i, p)
				}
			default:
				dead++
				if p != 1 {
					t.Errorf("bound %v query %d: dead-anchor pressure %v, want 1", bound, i, p)
				}
			}
		}
	}
	// The sequence must reach every outcome, or the checks above are vacuous.
	if fresh == 0 || dead == 0 || hits == 0 {
		t.Fatalf("outcomes: %d fresh anchors, %d dead anchors, %d hits; want each > 0", fresh, dead, hits)
	}
}

// TestCertificateFromStateAllocFree pins the query's cost model: a hit is one
// distance compare and a miss one full scan, and neither allocates.
func TestCertificateFromStateAllocFree(t *testing.T) {
	c := certFixture(t, 10.5)
	x := mat.VecOf(0)
	c.FromState(x) // anchor once
	c.TakePressure()
	scans := c.Reanchors()
	i := 0
	hit := func() {
		i++
		x[0] = float64(i%7) * 1e-6
		c.FromState(x)
		c.TakePressure()
	}
	if allocs := testing.AllocsPerRun(50, hit); allocs != 0 {
		t.Errorf("certificate hit allocates %v per query, want 0", allocs)
	}
	if c.Reanchors() != scans {
		t.Fatalf("hit queries re-anchored %d times", c.Reanchors()-scans)
	}
	// Alternate between two states far apart: every query misses the
	// anchor the previous one left.
	miss := func() {
		i++
		x[0] = float64(i%2) * 5
		c.FromState(x)
		c.TakePressure()
	}
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, miss); allocs != 0 {
		t.Errorf("certificate re-anchor allocates %v per query, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call, which may land on the old anchor.
	if got := c.Reanchors() - scans; got < runs {
		t.Errorf("alternating queries ran %d full scans, want at least %d", got, runs)
	}
}
