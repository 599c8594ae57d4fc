package fleet

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/state"
)

// attackedTrajectory corrupts a synthetic estimate stream with one of the
// paper's attack scenarios, so the snapshot/restore differential runs over
// trajectories where alarms, window shrinks, and deadline churn actually
// happen on both sides of the crash point.
func attackedTrajectory(t *testing.T, m *models.Model, attackName string, seed uint64, steps int) (ests, us []mat.Vec) {
	t.Helper()
	ests, us = synthTrajectory(m, seed, steps)
	atk, err := sim.BuildAttack(m, attackName)
	if err != nil {
		t.Fatalf("BuildAttack(%s, %s): %v", m.Name, attackName, err)
	}
	for i := range ests {
		ests[i] = atk.Apply(i, ests[i]).Clone()
	}
	return ests, us
}

func engineSnapshot(t *testing.T, eng *Engine) []byte {
	t.Helper()
	enc := state.NewEncoder()
	enc.Header()
	if err := eng.Snapshot(enc); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return enc.Bytes()
}

func engineRestore(t *testing.T, eng *Engine, blob []byte, make MakeStream) {
	t.Helper()
	dec := state.NewDecoder(blob)
	if err := dec.Header(); err != nil {
		t.Fatalf("snapshot header: %v", err)
	}
	if err := eng.Restore(dec, make); err != nil {
		t.Fatalf("Restore: %v", err)
	}
}

// TestRestoreMatchesNeverCrashed is the tentpole proof obligation: a fleet
// killed mid-run and rebuilt from its snapshot must produce a decision
// stream bit-identical to a fleet that never crashed — on every bundled
// plant under each of the paper's three attack scenarios, with crash
// points before, during, and after the attack onsets, plus baseline-
// strategy riders so every detector kind crosses a restore.
func TestRestoreMatchesNeverCrashed(t *testing.T) {
	const steps = 280
	crashPoints := []int{75, 170, 240}
	attacks := []string{"bias", "delay", "replay"}

	type streamCase struct {
		id       string
		m        *models.Model
		strat    sim.Strategy
		ests, us []mat.Vec
		want     []core.Decision
	}
	var cases []*streamCase
	byID := make(map[string]*streamCase)
	add := func(m *models.Model, attackName string, strat sim.Strategy) {
		sc := &streamCase{
			id:    fmt.Sprintf("%s/%s/%v", m.Name, attackName, strat),
			m:     m,
			strat: strat,
		}
		sc.ests, sc.us = attackedTrajectory(t, m, attackName, StreamSeed(99, sc.id), steps)
		cases = append(cases, sc)
		byID[sc.id] = sc
	}
	for _, m := range allModels {
		for _, attackName := range attacks {
			add(m, attackName, sim.Adaptive)
		}
	}
	for _, strat := range []sim.Strategy{sim.FixedWindow, sim.CUSUMBaseline, sim.EWMABaseline} {
		add(allModels[0], "bias", strat)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].id < cases[j].id })

	// Never-crashed reference: standalone detectors over the full run.
	for _, sc := range cases {
		serial := newDetector(t, sc.m, sc.strat)
		sc.want = make([]core.Decision, steps)
		for i := range sc.ests {
			d, err := serial.Step(sc.ests[i], sc.us[i])
			if err != nil {
				t.Fatalf("stream %s: serial step %d: %v", sc.id, i, err)
			}
			sc.want[i] = d
		}
	}

	// The to-be-crashed fleet: deliberately small shards so streams of
	// different plants and strategies mix inside shards.
	cfg := Config{Workers: 2, ShardSize: 4}
	eng := New(cfg)
	for _, sc := range cases {
		if _, err := eng.AddStream(sc.id, newDetector(t, sc.m, sc.strat), nil); err != nil {
			t.Fatalf("AddStream(%s): %v", sc.id, err)
		}
	}
	snaps := make(map[int][]byte)
	next := 0
	for i := 0; i < steps; i++ {
		if next < len(crashPoints) && i == crashPoints[next] {
			snaps[i] = engineSnapshot(t, eng)
			next++
		}
		for _, sc := range cases {
			got, err := eng.Submit(sc.id, sc.ests[i], sc.us[i])
			if err != nil {
				t.Fatalf("stream %s: Submit step %d: %v", sc.id, i, err)
			}
			if !decisionsEqual(got, sc.want[i]) {
				t.Fatalf("stream %s step %d: fleet decision %+v != serial %+v", sc.id, i, got, sc.want[i])
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	makeStream := func(id string) (*core.System, func(core.Decision, error), error) {
		sc, ok := byID[id]
		if !ok {
			return nil, nil, fmt.Errorf("unknown stream %q in snapshot", id)
		}
		det, err := sim.Detector(sim.Config{Model: sc.m, Strategy: sc.strat})
		return det, nil, err
	}

	alarmsAfterRestore := 0
	for _, k := range crashPoints {
		eng2 := New(cfg)
		engineRestore(t, eng2, snaps[k], makeStream)
		// A restored fleet is in the same state as the crashed one was, so
		// an immediate re-snapshot must reproduce the blob byte for byte.
		if again := engineSnapshot(t, eng2); !bytes.Equal(again, snaps[k]) {
			t.Fatalf("crash point %d: re-snapshot of restored fleet differs from original (%d vs %d bytes)",
				k, len(again), len(snaps[k]))
		}
		for i := k; i < steps; i++ {
			for _, sc := range cases {
				got, err := eng2.Submit(sc.id, sc.ests[i], sc.us[i])
				if err != nil {
					t.Fatalf("crash point %d, stream %s: Submit step %d: %v", k, sc.id, i, err)
				}
				if !decisionsEqual(got, sc.want[i]) {
					t.Fatalf("crash point %d, stream %s, step %d: restored decision %+v != never-crashed %+v",
						k, sc.id, i, got, sc.want[i])
				}
				if got.Alarm {
					alarmsAfterRestore++
				}
			}
		}
		if err := eng2.Close(); err != nil {
			t.Fatalf("crash point %d: Close: %v", k, err)
		}
	}
	if alarmsAfterRestore == 0 {
		t.Fatalf("no alarms fired after any restore; the differential is vacuous")
	}
	t.Logf("verified %d streams x %d crash points; %d post-restore alarms", len(cases), len(crashPoints), alarmsAfterRestore)
}

// TestSnapshotDeterministic pins the codec promise that equal fleet states
// encode to equal bytes, whatever the engine's layout: 64 aircraft-pitch
// streams replay their closed-loop traces through six engines that differ
// in shard size (8, 64, default), worker count and ingest path
// (Engine.Submit one sample at a time, or one Batcher wave per step), and
// every engine must write the same bytes mid-run and at the end. A
// snapshot must not disturb the streams either: every engine's decisions
// match an engine that never snapshotted.
func TestSnapshotDeterministic(t *testing.T) {
	const n, steps = 64, 80
	m := models.AircraftPitch()
	ids := make([]string, n)
	ests := make([][]mat.Vec, n)
	us := make([][]mat.Vec, n)
	for k := range ids {
		ids[k] = fmt.Sprintf("s-%03d", k)
		ests[k], us[k] = closedLoopTrace(t, m, 11, ids[k], k, steps)
	}

	type engineCase struct {
		cfg     Config
		batcher bool
	}
	// run feeds every step to a fresh engine; with snap set it snapshots
	// the engine half-way and at the end.
	run := func(ec engineCase, snap bool) (blobs [][]byte, got []core.Decision) {
		eng := New(ec.cfg)
		defer func() {
			if err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}()
		items := make([]BatchItem, n)
		out := make([]BatchResult, n)
		for k, id := range ids {
			s, err := eng.AddStream(id, newDetector(t, m, sim.Adaptive), nil)
			if err != nil {
				t.Fatalf("AddStream(%s): %v", id, err)
			}
			items[k].Stream = s
		}
		for i := 0; i < steps; i++ {
			if snap && i == steps/2 {
				blobs = append(blobs, engineSnapshot(t, eng))
			}
			if ec.batcher {
				for k := range items {
					items[k].Estimate, items[k].AppliedU = ests[k][i], us[k][i]
				}
				if err := eng.NewBatcher().Submit(items, out); err != nil {
					t.Fatalf("%+v: Batcher.Submit(step %d): %v", ec, i, err)
				}
				for k, r := range out {
					if r.Err != nil {
						t.Fatalf("%+v: step %d stream %s: %v", ec, i, ids[k], r.Err)
					}
					got = append(got, r.Decision)
				}
				continue
			}
			for k, id := range ids {
				d, err := eng.Submit(id, ests[k][i], us[k][i])
				if err != nil {
					t.Fatalf("%+v: Submit(%s, %d): %v", ec, id, i, err)
				}
				got = append(got, d)
			}
		}
		if snap {
			blobs = append(blobs, engineSnapshot(t, eng))
		}
		return blobs, got
	}

	engines := []engineCase{
		{Config{Workers: 1, ShardSize: 8}, false},
		{Config{Workers: 2, ShardSize: 64}, false},
		{Config{Workers: 2}, true},
		{Config{Workers: 2, ShardSize: 8}, true},
		{Config{Workers: 1, ShardSize: 64}, true},
		{Config{Workers: 1}, false},
	}
	_, decNone := run(engines[0], false)
	var want [][]byte
	for _, ec := range engines {
		blobs, decs := run(ec, true)
		for i := range decs {
			if !decisionsEqual(decs[i], decNone[i]) {
				t.Fatalf("%+v: decision %d disturbed by the snapshots: %+v != %+v", ec, i, decs[i], decNone[i])
			}
		}
		if want == nil {
			want = blobs
			continue
		}
		for j, blob := range blobs {
			if !bytes.Equal(blob, want[j]) {
				diff := 0
				for i := range min(len(blob), len(want[j])) {
					if blob[i] != want[j][i] {
						diff++
					}
				}
				t.Errorf("%+v: snapshot %d differs from %+v's in %d of %d bytes (%d vs %d bytes)",
					ec, j, engines[0], diff, len(want[j]), len(blob), len(want[j]))
			}
		}
	}
	t.Logf("%d engines wrote %d- and %d-byte snapshots", len(engines), len(want[0]), len(want[1]))
}

// TestRestoreValidation covers the refusal paths: restoring into a non-
// empty or closed engine, truncated snapshots, and a make callback that
// reconstructs the wrong configuration must all surface as errors (never
// panics, never silent corruption).
func TestRestoreValidation(t *testing.T) {
	m := models.AircraftPitch()
	mk := func(id string) (*core.System, func(core.Decision, error), error) {
		det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
		return det, nil, err
	}

	eng := New(Config{})
	if _, err := eng.AddStream("s", newDetector(t, m, sim.Adaptive), nil); err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	ests, us := synthTrajectory(m, 3, 10)
	for i := range ests {
		if _, err := eng.Submit("s", ests[i], us[i]); err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
	}
	blob := engineSnapshot(t, eng)

	// Non-empty engine refuses.
	dec := state.NewDecoder(blob)
	if err := dec.Header(); err != nil {
		t.Fatalf("header: %v", err)
	}
	if err := eng.Restore(dec, mk); err == nil {
		t.Fatalf("Restore into non-empty engine succeeded")
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Closed engine refuses.
	dec = state.NewDecoder(blob)
	_ = dec.Header()
	if err := eng.Restore(dec, mk); err == nil {
		t.Fatalf("Restore into closed engine succeeded")
	}

	// Every truncation of the blob must error out, not panic.
	for cut := 0; cut < len(blob); cut += 7 {
		eng2 := New(Config{})
		dec = state.NewDecoder(blob[:cut])
		err := dec.Header()
		if err == nil {
			err = eng2.Restore(dec, mk)
		}
		if err == nil {
			t.Fatalf("restore of %d-byte truncation succeeded", cut)
		}
		if cerr := eng2.Close(); cerr != nil {
			t.Fatalf("Close after failed restore: %v", cerr)
		}
	}

	// A make that rebuilds a structurally different plant (the 12-state
	// quadrotor vs the 3-state pitch model) must be caught by structural
	// validation, not restored into. (Same-shape plants with different
	// dynamics are indistinguishable to the codec by design — the snapshot
	// carries state, and configuration identity is make's obligation.)
	other := models.Quadrotor()
	eng3 := New(Config{})
	dec = state.NewDecoder(blob)
	_ = dec.Header()
	err := eng3.Restore(dec, func(id string) (*core.System, func(core.Decision, error), error) {
		det, err := sim.Detector(sim.Config{Model: other, Strategy: sim.Adaptive})
		return det, nil, err
	})
	if err == nil {
		t.Fatalf("Restore with mismatched plant succeeded")
	}
	if err := eng3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRestoreAllOrNothing pins that a failed Restore leaves the engine as
// it found it — empty — instead of holding the streams registered before
// the failure: truncations of a snapshot of all six plants under all four
// strategies at thirty points, and a make that fails part-way, must error
// with no stream and no shard left, and the same engine must then restore the
// intact snapshot and re-encode it byte for byte.
func TestRestoreAllOrNothing(t *testing.T) {
	strategies := []sim.Strategy{sim.Adaptive, sim.FixedWindow, sim.CUSUMBaseline, sim.EWMABaseline}
	eng := New(Config{Workers: 2, ShardSize: 3})
	for _, name := range models.Names() {
		m := models.ByName(name)
		for _, strat := range strategies {
			for k := 0; k < 2; k++ {
				id := fmt.Sprintf("%s/%v/%d", name, strat, k)
				if _, err := eng.AddStream(id, newDetector(t, m, strat), nil); err != nil {
					t.Fatalf("AddStream(%s): %v", id, err)
				}
				ests, us := synthTrajectory(m, uint64(len(id)+k), 12)
				for i := range ests {
					if _, err := eng.Submit(id, ests[i], us[i]); err != nil {
						t.Fatalf("Submit(%s, %d): %v", id, i, err)
					}
				}
			}
		}
	}
	blob := engineSnapshot(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mk := func(id string) (*core.System, func(core.Decision, error), error) {
		parts := strings.SplitN(id, "/", 3)
		for _, strat := range strategies {
			if strat.String() == parts[1] {
				det, err := sim.Detector(sim.Config{Model: models.ByName(parts[0]), Strategy: strat})
				return det, nil, err
			}
		}
		return nil, nil, fmt.Errorf("no strategy in %q", id)
	}

	fresh := New(Config{Workers: 2, ShardSize: 3})
	defer fresh.Close()
	checkEmpty := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: Restore succeeded", label)
		}
		if n, sh := fresh.Streams(), fresh.Shards(); n != 0 || sh != 0 {
			t.Fatalf("%s: failed Restore (%v) left %d streams in %d shards", label, err, n, sh)
		}
	}
	for cut := len(state.Magic) + 2 + 1; cut < len(blob); cut += len(blob)/29 + 1 {
		dec := state.NewDecoder(blob[:cut])
		if err := dec.Header(); err != nil {
			t.Fatalf("header of %d-byte cut: %v", cut, err)
		}
		checkEmpty(fmt.Sprintf("%d of %d bytes", cut, len(blob)), fresh.Restore(dec, mk))
	}
	dec := state.NewDecoder(blob[:len(blob)-1])
	_ = dec.Header()
	checkEmpty("all but the last byte", fresh.Restore(dec, mk))
	dec = state.NewDecoder(blob)
	_ = dec.Header()
	calls := 0
	checkEmpty("make failing at the tenth stream", fresh.Restore(dec, func(id string) (*core.System, func(core.Decision, error), error) {
		if calls++; calls == 10 {
			return nil, nil, fmt.Errorf("no detector for %s", id)
		}
		return mk(id)
	}))

	engineRestore(t, fresh, blob, mk)
	if got := engineSnapshot(t, fresh); !bytes.Equal(got, blob) {
		t.Fatalf("engine restored after failed restores re-encodes to %d bytes that differ from the %d-byte snapshot", len(got), len(blob))
	}
}

// TestCloseZeroStreams pins the empty-engine shutdown path: Close on an
// engine that never had a stream returns immediately with a clean worker
// shutdown, stays idempotent, and leaves ingest properly refused.
func TestCloseZeroStreams(t *testing.T) {
	eng := New(Config{Workers: 4})
	if err := eng.Close(); err != nil {
		t.Fatalf("Close with zero streams: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := eng.Post("nope", mat.VecOf(0), mat.VecOf(0)); err == nil {
		t.Fatalf("Post after close succeeded")
	}
	if _, err := eng.AddStream("nope", newDetector(t, models.AircraftPitch(), sim.Adaptive), nil); err != ErrClosed {
		t.Fatalf("AddStream after close: err = %v, want ErrClosed", err)
	}
}
