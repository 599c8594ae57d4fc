package core

import (
	"testing"

	"repro/internal/mat"
)

// The tentpole contract of the perf pass: with observability disabled the
// steady-state adaptive Step — logger ingest, warm-started deadline search,
// and window check — performs zero heap allocations. Any regression here
// reintroduces per-control-period GC pressure on the hot path.
func TestAdaptiveStepNoAllocsSteadyState(t *testing.T) {
	s := must(New(cfg(t)))
	est := mat.VecOf(0)
	u := mat.VecOf(0.1)
	// Warm up past the logger fill and anchor the deadline estimator.
	for i := 0; i < 20; i++ {
		if _, err := s.Step(est, u); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Step(est, u); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state adaptive Step allocates %v per call, want 0", allocs)
	}
}

// The fixed-window baseline shares the logger and window machinery, so it
// inherits the same guarantee.
func TestFixedStepNoAllocsSteadyState(t *testing.T) {
	s := must(NewFixed(cfg(t), 4))
	est := mat.VecOf(0)
	u := mat.VecOf(0.1)
	for i := 0; i < 20; i++ {
		if _, err := s.Step(est, u); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Step(est, u); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state fixed Step allocates %v per call, want 0", allocs)
	}
}

// TestEstimatorScratchOnFirstSearch pins where the serial path pays for
// the deadline estimator's search scratch: a fresh adaptive system holds
// none, its first step's query allocates it, and from then on the step is
// the allocation-free one TestAdaptiveStepNoAllocsSteadyState measures.
// Fixed-window systems never search and have no estimator at all.
func TestEstimatorScratchOnFirstSearch(t *testing.T) {
	s := must(New(cfg(t)))
	if s.Estimator().HasScratch() {
		t.Fatal("fresh estimator already holds search scratch")
	}
	if _, err := s.Step(mat.VecOf(0), mat.VecOf(0.1)); err != nil {
		t.Fatal(err)
	}
	if !s.Estimator().HasScratch() {
		t.Fatal("first step queried a deadline without allocating search scratch")
	}
	if f := must(NewFixed(cfg(t), 4)); f.Estimator() != nil {
		t.Fatal("fixed-window system carries a deadline estimator")
	}
}
