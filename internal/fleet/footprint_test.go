package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/sim"
)

// footprintStreams and footprintWaves size the live-heap measurement: 2048
// adaptive streams (eight full shards, so per-shard slabs and certificates
// are amortized as in a loaded engine), each warmed by 41 silent Batcher
// waves — past the anchoring of every shard certificate and past the fill
// of every logger's sliding window.
const footprintStreams, footprintWaves = 2048, 41

// streamFootprint returns the live heap bytes one warmed adaptive stream
// of the plant holds: detector (logger slab, window, estimator) plus its
// share of the engine and its shard. The plant's shared reachability
// tables are built before the baseline is read, and the test's own item
// and result slices are dropped before the final read, so the delta is the
// engine's alone.
func streamFootprint(tb testing.TB, m *models.Model) float64 {
	tb.Helper()
	newDetector(tb, m, sim.Adaptive)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	eng := New(Config{})
	defer eng.Close()
	est, u := mat.NewVec(m.Sys.StateDim()), mat.NewVec(m.Sys.InputDim())
	items := make([]BatchItem, footprintStreams)
	for i := range items {
		s, err := eng.AddStream(fmt.Sprintf("%s-%05d", m.Name, i), newDetector(tb, m, sim.Adaptive), nil)
		if err != nil {
			tb.Fatalf("AddStream: %v", err)
		}
		items[i] = BatchItem{Stream: s, Estimate: est, AppliedU: u}
	}
	out := make([]BatchResult, footprintStreams)
	b := eng.NewBatcher()
	for w := 0; w < footprintWaves; w++ {
		if err := b.Submit(items, out); err != nil {
			tb.Fatalf("Submit: %v", err)
		}
		for i := range out {
			if out[i].Err != nil {
				tb.Fatalf("wave %d item %d: %v", w, i, out[i].Err)
			}
		}
	}
	items, out, b = nil, nil, nil

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / footprintStreams
}

// TestStreamFootprint bounds the live heap per warmed adaptive stream, the
// bytes that set how many streams fit in a node and how much memory each
// step touches. Measured with this helper on go1.24.0/amd64, a stream
// held, while the logger kept its window as a ring of Entry slice headers
// and every estimator allocated its search scratch up front, and then with
// the pointer-free slab and lazy scratch: quadrotor 13,713 → 10,347 B,
// aircraft-pitch 6,746 → 3,588 B, vehicle-turning 5,219 → 2,108 B, dc-motor
// 6,737 → 3,581 B. Each bound keeps the cut the slab and lazy scratch were
// built to make — 20% on the quadrotor, whose 12-dimensional window data
// dominates, 40% on the rest — so a regression back toward the old layout
// fails here.
func TestStreamFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("measures 2048 warmed streams per plant")
	}
	for _, tc := range []struct {
		model string
		old   float64 // bytes per stream with the Entry ring
		keep  float64 // fraction of old allowed
	}{
		{"quadrotor", 13713, 0.8},
		{"aircraft-pitch", 6746, 0.6},
		{"vehicle-turning", 5219, 0.6},
		{"dc-motor", 6737, 0.6},
	} {
		got := streamFootprint(t, models.ByName(tc.model))
		max := tc.keep * tc.old
		t.Logf("%s: %.0f B/stream (bound %.0f)", tc.model, got, max)
		if got > max {
			t.Errorf("%s: %.0f live bytes per warmed stream, want <= %.0f (%.0f%% of %.0f)",
				tc.model, got, max, 100*tc.keep, tc.old)
		}
	}
}

// TestOwnerOnlyEstimatorScratch pins where deadline search scratch lives
// in a fleet: a shard answers its adaptive streams' queries with one
// certificate per compatible estimator configuration, and the certificate
// searches with the estimator of the first stream that needed it. Only
// those owner estimators may ever allocate search scratch; every other
// adaptive stream's estimator stays configuration-only, however much
// closed-loop traffic (which re-anchors on most queries) it sees. The
// streams span two shards and two configurations (every third stream's
// estimator has a doubled noise radius), so four owners are expected.
func TestOwnerOnlyEstimatorScratch(t *testing.T) {
	const streams, steps = 300, 60
	m := models.ByName("aircraft-pitch")
	alt := core.Config{
		Sys: m.Sys, Inputs: m.U, Eps: m.Eps, Safe: m.Safe, Tau: m.Tau,
		MaxWindow: m.MaxWindow, InitRadius: 2 * m.EstimatorRadius(),
	}
	eng := New(Config{})
	defer eng.Close()
	hs := make([]*Stream, streams)
	ests, us := make([][]mat.Vec, streams), make([][]mat.Vec, streams)
	for i := range hs {
		var det *core.System
		switch {
		case i%10 == 9:
			det = newDetector(t, m, sim.FixedWindow)
		case i%3 == 0:
			d, err := core.New(alt)
			if err != nil {
				t.Fatal(err)
			}
			det = d
		default:
			det = newDetector(t, m, sim.Adaptive)
		}
		id := fmt.Sprintf("%s-%05d", m.Name, i)
		s, err := eng.AddStream(id, det, nil)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = s
		ests[i], us[i] = closedLoopTrace(t, m, 11, id, i, steps)
	}
	items := make([]BatchItem, streams)
	out := make([]BatchResult, streams)
	b := eng.NewBatcher()
	for k := 0; k < steps; k++ {
		for i, s := range hs {
			items[i] = BatchItem{Stream: s, Estimate: ests[i][k], AppliedU: us[i][k]}
		}
		if err := b.Submit(items, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].Err != nil {
				t.Fatalf("step %d stream %d: %v", k, i, out[i].Err)
			}
		}
	}
	owners, others := 0, 0
	for i, s := range hs {
		est := s.det.Estimator()
		if est == nil {
			continue
		}
		owner := s.cert.Estimator() == est
		if est.HasScratch() != owner {
			t.Errorf("stream %d: estimator scratch allocated = %v, certificate owner = %v", i, est.HasScratch(), owner)
		}
		if owner {
			owners++
		} else {
			others++
		}
	}
	if owners != 4 || others == 0 {
		t.Errorf("%d owner estimators and %d others, want 4 owners (2 shards x 2 configurations)", owners, others)
	}
}

// TestAddStreamAllocs pins what registering a stream into an open shard
// allocates. The plant key is built in a buffer the engine reuses and
// looked up without copying, and a stream carries no decision channel
// (decisions go to each submit call's own cell), so the call allocates
// only its share of the registry map's growth, less than one object per
// call whatever the plant's size. It used to format a fresh key string per
// call: 41 allocations per quadrotor AddStream, 39 of them the key, and
// then allocated a decision channel (2 objects) per stream.
func TestAddStreamAllocs(t *testing.T) {
	const runs = 200
	m := models.ByName("quadrotor")
	eng := New(Config{Workers: 1})
	defer eng.Close()
	dets := make([]*core.System, runs+2)
	ids := make([]string, runs+2)
	for i := range dets {
		dets[i] = newDetector(t, m, sim.Adaptive)
		ids[i] = fmt.Sprintf("q%03d", i)
	}
	// The first stream forms the shard; every measured call lands in it
	// while it still has room (runs+2 <= 256).
	if _, err := eng.AddStream(ids[0], dets[0], nil); err != nil {
		t.Fatal(err)
	}
	k := 1
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := eng.AddStream(ids[k], dets[k], nil); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if eng.Shards() != 1 {
		t.Fatalf("streams spread over %d shards, want 1", eng.Shards())
	}
	t.Logf("AddStream: %v allocs", allocs)
	const maxAllocs = 0
	if allocs > maxAllocs {
		t.Fatalf("AddStream into an open quadrotor shard allocates %v objects, want <= %d", allocs, maxAllocs)
	}
}
