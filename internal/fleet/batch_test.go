package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/sim"
)

// TestBatcherMatchesSerial is the batched-ingest differential: every
// bundled plant with several streams each, fed in interleaved batches
// through Batcher.Submit on one engine and one Stream.Submit at a time on
// a twin engine — every stream's decision sequence must be bit-identical.
// Deliberately small shards keep the shard batching machinery engaged
// underneath.
func TestBatcherMatchesSerial(t *testing.T) {
	const steps, perPlant = 40, 3
	batched := New(Config{Workers: 2, ShardSize: 4})
	defer batched.Close()
	serial := New(Config{Workers: 2, ShardSize: 4})
	defer serial.Close()

	type streamCase struct {
		bs, ss   *Stream
		ests, us []mat.Vec
	}
	var cases []*streamCase
	for _, m := range allModels {
		for k := 0; k < perPlant; k++ {
			id := fmt.Sprintf("%s-%d", m.Name, k)
			sc := &streamCase{}
			sc.ests, sc.us = synthTrajectory(m, StreamSeed(17, id), steps)
			var err error
			if sc.bs, err = batched.AddStream(id, newDetector(t, m, sim.Adaptive), nil); err != nil {
				t.Fatalf("AddStream(batched %s): %v", id, err)
			}
			if sc.ss, err = serial.AddStream(id, newDetector(t, m, sim.Adaptive), nil); err != nil {
				t.Fatalf("AddStream(serial %s): %v", id, err)
			}
			cases = append(cases, sc)
		}
	}

	bt := batched.NewBatcher()
	items := make([]BatchItem, len(cases))
	out := make([]BatchResult, len(cases))
	for step := 0; step < steps; step++ {
		for i, sc := range cases {
			items[i] = BatchItem{Stream: sc.bs, Estimate: sc.ests[step], AppliedU: sc.us[step]}
		}
		if err := bt.Submit(items, out); err != nil {
			t.Fatalf("Submit(step %d): %v", step, err)
		}
		for i, sc := range cases {
			if out[i].Err != nil {
				t.Fatalf("step %d stream %d: batch error %v", step, i, out[i].Err)
			}
			want, err := sc.ss.Submit(sc.ests[step], sc.us[step])
			if err != nil {
				t.Fatalf("step %d stream %d: serial error %v", step, i, err)
			}
			if !decisionsEqual(out[i].Decision, want) {
				t.Fatalf("step %d stream %d: batch %+v != serial %+v", step, i, out[i].Decision, want)
			}
		}
	}
}

// TestBatcherDuplicateStreams pins the wave split: a batch carrying many
// samples for the same stream (including a triple) must decide them in
// item order without deadlocking on the stream's single-sample token, and
// the decision sequence must match serial submission exactly.
func TestBatcherDuplicateStreams(t *testing.T) {
	const steps = 12
	m := allModels[0]
	batched := New(Config{Workers: 2})
	defer batched.Close()
	serial := New(Config{Workers: 2})
	defer serial.Close()
	bs, err := batched.AddStream("dup", newDetector(t, m, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	ss, err := serial.AddStream("dup", newDetector(t, m, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	ests, us := synthTrajectory(m, 5, steps)

	// One batch of all twelve samples for the one stream: twelve waves.
	items := make([]BatchItem, steps)
	out := make([]BatchResult, steps)
	for i := 0; i < steps; i++ {
		items[i] = BatchItem{Stream: bs, Estimate: ests[i], AppliedU: us[i]}
	}
	if err := batched.NewBatcher().Submit(items, out); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := 0; i < steps; i++ {
		if out[i].Err != nil {
			t.Fatalf("sample %d: %v", i, out[i].Err)
		}
		want, err := ss.Submit(ests[i], us[i])
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		if !decisionsEqual(out[i].Decision, want) {
			t.Fatalf("sample %d: batch %+v != serial %+v", i, out[i].Decision, want)
		}
	}
}

// TestBatcherPerItemErrors pins the per-item failure contract: a nil
// stream, a stream from a different engine, and a dimension mismatch each
// fail their own item while the healthy items in the same batch decide.
func TestBatcherPerItemErrors(t *testing.T) {
	m := allModels[0]
	eng := New(Config{Workers: 1})
	defer eng.Close()
	other := New(Config{Workers: 1})
	defer other.Close()
	st, err := eng.AddStream("ok", newDetector(t, m, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	alien, err := other.AddStream("alien", newDetector(t, m, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	ests, us := synthTrajectory(m, 3, 2)

	items := []BatchItem{
		{Stream: st, Estimate: ests[0], AppliedU: us[0]},
		{Stream: nil, Estimate: ests[0], AppliedU: us[0]},
		{Stream: alien, Estimate: ests[0], AppliedU: us[0]},
		{Stream: st, Estimate: ests[1][:1], AppliedU: us[1]}, // wrong dim
		{Stream: st, Estimate: ests[1], AppliedU: us[1]},
	}
	out := make([]BatchResult, len(items))
	if err := eng.NewBatcher().Submit(items, out); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if out[0].Err != nil || out[4].Err != nil {
		t.Fatalf("healthy items failed: %v / %v", out[0].Err, out[4].Err)
	}
	if out[0].Decision.Step != 0 || out[4].Decision.Step != 1 {
		t.Fatalf("healthy items stepped %d, %d; want 0, 1", out[0].Decision.Step, out[4].Decision.Step)
	}
	if out[1].Err != ErrUnknownStream {
		t.Fatalf("nil stream error = %v, want ErrUnknownStream", out[1].Err)
	}
	if out[2].Err == nil || !strings.Contains(out[2].Err.Error(), "different engine") {
		t.Fatalf("alien stream error = %v", out[2].Err)
	}
	if out[3].Err == nil {
		t.Fatalf("dimension mismatch item decided")
	}

	if err := eng.NewBatcher().Submit(items, out[:2]); err == nil {
		t.Fatalf("length-mismatched out accepted")
	}
}

// TestBatcherSteadyStateAllocs pins the batched submit seam itself
// allocation-free: with warm streams and a reused items/out pair,
// Batcher.Submit must not allocate (the decisions flow through each
// stream's preallocated slot and channel).
func TestBatcherSteadyStateAllocs(t *testing.T) {
	m := allModels[0]
	eng := New(Config{Workers: 2})
	defer eng.Close()
	const n = 8
	items := make([]BatchItem, n)
	out := make([]BatchResult, n)
	ests, us := synthTrajectory(m, 11, 4)
	for i := 0; i < n; i++ {
		st, err := eng.AddStream(fmt.Sprintf("s-%d", i), newDetector(t, m, sim.Adaptive), nil)
		if err != nil {
			t.Fatalf("AddStream: %v", err)
		}
		items[i] = BatchItem{Stream: st, Estimate: ests[0], AppliedU: us[0]}
	}
	bt := eng.NewBatcher()
	if err := bt.Submit(items, out); err != nil { // warm-up
		t.Fatalf("Submit: %v", err)
	}
	step := 1
	avg := testing.AllocsPerRun(2, func() {
		for i := range items {
			items[i].Estimate, items[i].AppliedU = ests[step], us[step]
		}
		if err := bt.Submit(items, out); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		for i := range out {
			if out[i].Err != nil {
				t.Fatalf("item %d: %v", i, out[i].Err)
			}
		}
		step++
	})
	if avg > 0 {
		t.Fatalf("Batcher.Submit allocates %.1f per batch, want 0", avg)
	}
}
