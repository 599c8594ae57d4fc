package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/models"
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

// TestBatcherOverlappingWavesNoDeadlock pins that a submitter never waits
// on a token while it owns a shard. Two batchers share one shard and one
// worker: A submits [T, S] while B submits [S]. A's wave claims the shard
// at T and may then find S's token held by B, whose sample for S is
// pending in the shard A claimed. If A kept that claim to step itself
// after its wave, neither call would ever return; a claim made before a
// wave's last sample goes to the workers. A wedged engine is left open:
// Close would wait on the stuck tokens too.
func TestBatcherOverlappingWavesNoDeadlock(t *testing.T) {
	const rounds = 20000
	m := models.AircraftPitch()
	eng := New(Config{Workers: 1})
	st, err := eng.AddStream("T", newDetector(t, m, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream(T): %v", err)
	}
	ss, err := eng.AddStream("S", newDetector(t, m, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream(S): %v", err)
	}
	if eng.Shards() != 1 {
		t.Fatalf("streams formed %d shards, want 1", eng.Shards())
	}
	ests, us := synthTrajectory(m, 23, 1)
	submit := func(items []BatchItem, done chan<- error) {
		bt := eng.NewBatcher()
		out := make([]BatchResult, len(items))
		for r := 0; r < rounds; r++ {
			if err := bt.Submit(items, out); err != nil {
				done <- err
				return
			}
			for i := range out {
				if out[i].Err != nil {
					done <- fmt.Errorf("round %d item %d: %w", r, i, out[i].Err)
					return
				}
			}
		}
		done <- nil
	}
	done := make(chan error, 2)
	go submit([]BatchItem{
		{Stream: st, Estimate: ests[0], AppliedU: us[0]},
		{Stream: ss, Estimate: ests[0], AppliedU: us[0]},
	}, done)
	go submit([]BatchItem{{Stream: ss, Estimate: ests[0], AppliedU: us[0]}}, done)
	deadline := time.After(time.Minute)
	for k := 0; k < 2; k++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("batcher: %v", err)
			}
		case <-deadline:
			t.Fatal("overlapping batch waves deadlocked: a submitter blocked on a stream token while owning an unstepped shard")
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Steps() != rounds || ss.Steps() != 2*rounds {
		t.Fatalf("steps T=%d S=%d, want %d and %d", st.Steps(), ss.Steps(), rounds, 2*rounds)
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
// Batcher.Submit must not allocate (the decisions land in the caller's
// out cells, and the Batcher's own waiter signals the wave).
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
