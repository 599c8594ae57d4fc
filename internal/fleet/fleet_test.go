package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sim"
)

// allModels is every bundled plant: the five Table 1 simulators plus the
// testbed car. Shared across tests so reach.Shared's per-plant memoization
// kicks in.
var allModels = append(models.All(), models.TestbedCar())

// synthTrajectory generates a deterministic estimate/input stream for a
// plant: the estimate follows the model prediction plus small noise (a
// realistic residual floor) with periodic spikes scaled by τ so alarms and
// window shrinks actually occur.
func synthTrajectory(m *models.Model, seed uint64, steps int) (ests, us []mat.Vec) {
	src := noise.NewSource(seed)
	n, in := m.Sys.StateDim(), m.Sys.InputDim()
	ests = make([]mat.Vec, steps)
	us = make([]mat.Vec, steps)
	prev := m.X0.Clone()
	prevU := mat.NewVec(in)
	pred := mat.NewVec(n)
	for t := 0; t < steps; t++ {
		e := mat.NewVec(n)
		if t == 0 {
			prev.CopyTo(e)
		} else {
			m.Sys.PredictTo(pred, prev, prevU)
			pred.CopyTo(e)
		}
		for i := range e {
			e[i] += m.Tau[i] * src.Uniform(-0.2, 0.2)
		}
		if t%9 == 7 {
			for i := range e {
				e[i] += m.Tau[i] * src.Uniform(1.5, 3)
			}
		}
		u := mat.NewVec(in)
		for i := range u {
			u[i] = src.Uniform(-1, 1)
		}
		ests[t], us[t] = e, u
		e.CopyTo(prev)
		u.CopyTo(prevU)
	}
	return ests, us
}

// closedLoopTrace returns the samples a detector on a closed-loop stream
// sees: the estimates of a sim.Run trace seeded from StreamSeed(fleetSeed,
// id), each paired with the input applied over the preceding period (zero
// for the first). Like the end-to-end benchmark's closed-loop workloads,
// one stream in 16 each (by idx) runs under the bias, delay and replay
// attacks.
func closedLoopTrace(tb testing.TB, m *models.Model, fleetSeed uint64, id string, idx, steps int) (ests, us []mat.Vec) {
	tb.Helper()
	var att attack.Attack
	if name := [16]string{1: "bias", 2: "delay", 3: "replay"}[idx%16]; name != "" {
		a, err := sim.BuildAttack(m, name)
		if err != nil {
			tb.Fatalf("BuildAttack(%s, %s): %v", m.Name, name, err)
		}
		att = a
	}
	run, err := sim.Run(sim.Config{Model: m, Attack: att, Steps: steps, Seed: StreamSeed(fleetSeed, id)})
	if err != nil {
		tb.Fatalf("trace for %s: %v", id, err)
	}
	ests = make([]mat.Vec, steps)
	us = make([]mat.Vec, steps)
	for k, rec := range run.Records {
		ests[k] = rec.Estimate
		if k == 0 {
			us[k] = mat.NewVec(m.Sys.InputDim())
		} else {
			us[k] = run.Records[k-1].Input
		}
	}
	return ests, us
}

func decisionsEqual(a, b core.Decision) bool {
	return a.Step == b.Step && a.Window == b.Window && a.Deadline == b.Deadline &&
		a.Alarm == b.Alarm && a.Complementary == b.Complementary &&
		a.ComplementaryStep == b.ComplementaryStep && slices.Equal(a.Dims, b.Dims)
}

func newDetector(t testing.TB, m *models.Model, strat sim.Strategy) *core.System {
	t.Helper()
	det, err := sim.Detector(sim.Config{Model: m, Strategy: strat})
	if err != nil {
		t.Fatalf("Detector(%s, %v): %v", m.Name, strat, err)
	}
	return det
}

// TestFleetMatchesSerialAllPlants is the tentpole differential test: every
// bundled plant, several streams per plant across strategies, fed through
// the async Post path by concurrent feeders with deliberately small shards
// — and every decision sequence must be bit-identical to a standalone
// core.System stepped over the same samples.
func TestFleetMatchesSerialAllPlants(t *testing.T) {
	const steps = 60
	strategies := []sim.Strategy{sim.Adaptive, sim.Adaptive, sim.Adaptive, sim.FixedWindow, sim.CUSUMBaseline}
	eng := New(Config{Workers: 2, ShardSize: 8})

	type streamCase struct {
		id       string
		m        *models.Model
		strat    sim.Strategy
		ests, us []mat.Vec
		got      []core.Decision
		cbErr    error
	}
	var cases []*streamCase
	for _, m := range allModels {
		for k, strat := range strategies {
			sc := &streamCase{
				id:    fmt.Sprintf("%s-%d", m.Name, k),
				m:     m,
				strat: strat,
			}
			sc.ests, sc.us = synthTrajectory(m, StreamSeed(42, sc.id), steps)
			det := newDetector(t, m, strat)
			// One in-flight sample per stream means the callback runs
			// sequentially for a given stream; Close orders it before the
			// final reads.
			if _, err := eng.AddStream(sc.id, det, func(d core.Decision, err error) {
				if err != nil && sc.cbErr == nil {
					sc.cbErr = err
				}
				sc.got = append(sc.got, d)
			}); err != nil {
				t.Fatalf("AddStream(%s): %v", sc.id, err)
			}
			cases = append(cases, sc)
		}
	}

	var wg sync.WaitGroup
	for _, sc := range cases {
		wg.Add(1)
		go func(sc *streamCase) {
			defer wg.Done()
			for i := range sc.ests {
				if err := eng.Post(sc.id, sc.ests[i], sc.us[i]); err != nil {
					t.Errorf("Post(%s, step %d): %v", sc.id, i, err)
					return
				}
			}
		}(sc)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	alarms, comps := 0, 0
	for _, sc := range cases {
		if sc.cbErr != nil {
			t.Fatalf("stream %s: decision callback error: %v", sc.id, sc.cbErr)
		}
		if len(sc.got) != steps {
			t.Fatalf("stream %s: got %d decisions, want %d", sc.id, len(sc.got), steps)
		}
		serial := newDetector(t, sc.m, sc.strat)
		for i := range sc.ests {
			want, err := serial.Step(sc.ests[i], sc.us[i])
			if err != nil {
				t.Fatalf("stream %s: serial step %d: %v", sc.id, i, err)
			}
			if !decisionsEqual(sc.got[i], want) {
				t.Fatalf("stream %s step %d: fleet decision %+v != serial %+v", sc.id, i, sc.got[i], want)
			}
			if want.Alarm {
				alarms++
			}
			if want.Complementary {
				comps++
			}
		}
	}
	// The equivalence must not be vacuous: the synthetic fleet has to
	// exercise the alarm path.
	if alarms == 0 {
		t.Fatalf("differential campaign produced no alarms; trajectories too tame")
	}
	t.Logf("compared %d streams x %d steps: %d alarms, %d complementary", len(cases), steps, alarms, comps)
}

// TestSubmitMatchesSerial pins the synchronous path: interleaved Submit
// calls on two same-plant streams return decisions bit-identical to serial
// execution, step by step.
func TestSubmitMatchesSerial(t *testing.T) {
	const steps = 50
	m := models.AircraftPitch()
	eng := New(Config{})
	defer func() {
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()

	ids := []string{"a", "b"}
	serial := make([]*core.System, len(ids))
	trajE := make([][]mat.Vec, len(ids))
	trajU := make([][]mat.Vec, len(ids))
	for i, id := range ids {
		if _, err := eng.AddStream(id, newDetector(t, m, sim.Adaptive), nil); err != nil {
			t.Fatalf("AddStream(%s): %v", id, err)
		}
		serial[i] = newDetector(t, m, sim.Adaptive)
		trajE[i], trajU[i] = synthTrajectory(m, StreamSeed(7, id), steps)
	}
	for s := 0; s < steps; s++ {
		for i, id := range ids {
			got, err := eng.Submit(id, trajE[i][s], trajU[i][s])
			if err != nil {
				t.Fatalf("Submit(%s, step %d): %v", id, s, err)
			}
			want, err := serial[i].Step(trajE[i][s], trajU[i][s])
			if err != nil {
				t.Fatalf("serial step %d: %v", s, err)
			}
			if !decisionsEqual(got, want) {
				t.Fatalf("stream %s step %d: fleet %+v != serial %+v", id, s, got, want)
			}
		}
	}
}

// TestFleetOddShardSizeMatchesSerial is the ragged-tile differential: an
// explicit ShardSize that is not a multiple of the kernel tile must not
// perturb a single decision. Covers the remainder-tile path of every
// batched kernel end to end.
func TestFleetOddShardSizeMatchesSerial(t *testing.T) {
	const steps = 40
	m := models.AircraftPitch()
	eng := New(Config{Workers: 2, ShardSize: 7})
	defer func() {
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()

	const streams = 17 // 2 full shards of 7 plus a remainder shard of 3
	type sc struct {
		ests, us []mat.Vec
		got      []core.Decision
	}
	cases := make([]*sc, streams)
	for i := range cases {
		c := &sc{}
		id := fmt.Sprintf("odd-%d", i)
		c.ests, c.us = synthTrajectory(m, StreamSeed(7, id), steps)
		ci := c
		if _, err := eng.AddStream(id, newDetector(t, m, sim.Adaptive), func(d core.Decision, err error) {
			if err == nil {
				ci.got = append(ci.got, d)
			}
		}); err != nil {
			t.Fatalf("AddStream(%s): %v", id, err)
		}
		cases[i] = c
	}
	for s := 0; s < steps; s++ {
		for i, c := range cases {
			if err := eng.Post(fmt.Sprintf("odd-%d", i), c.ests[s], c.us[s]); err != nil {
				t.Fatalf("Post(%d, %d): %v", i, s, err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, c := range cases {
		if len(c.got) != steps {
			t.Fatalf("stream %d: %d decisions, want %d", i, len(c.got), steps)
		}
		serial := newDetector(t, m, sim.Adaptive)
		for s := 0; s < steps; s++ {
			want, err := serial.Step(c.ests[s], c.us[s])
			if err != nil {
				t.Fatalf("serial step: %v", err)
			}
			if !decisionsEqual(c.got[s], want) {
				t.Fatalf("stream %d step %d: fleet %+v != serial %+v", i, s, c.got[s], want)
			}
		}
	}
}

// TestFleetSharding checks content-keyed grouping: same-plant streams pack
// into shards of ShardSize, distinct plants never share a shard, and a
// ShardSize left at zero or set above one kernel tile means one tile, so a
// plant's shard count is a function of its stream count alone.
func TestFleetSharding(t *testing.T) {
	ma := models.AircraftPitch()
	for _, cfg := range []Config{{}, {ShardSize: 4096}} {
		eng := New(cfg)
		const streams = 2*mat.BatchTile + 1 // two full tiles and one stream over
		for i := 0; i < streams; i++ {
			if _, err := eng.AddStream(fmt.Sprintf("a%d", i), newDetector(t, ma, sim.Adaptive), nil); err != nil {
				t.Fatalf("%+v: AddStream: %v", cfg, err)
			}
		}
		if got := eng.Shards(); got != 3 {
			t.Errorf("%+v: %d same-plant streams formed %d shards, want 3", cfg, streams, got)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	eng := New(Config{ShardSize: 4})
	defer func() {
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	mb := models.SeriesRLC()
	for i := 0; i < 9; i++ {
		if _, err := eng.AddStream(fmt.Sprintf("a%d", i), newDetector(t, ma, sim.Adaptive), nil); err != nil {
			t.Fatalf("AddStream: %v", err)
		}
	}
	// 9 streams / shard size 4 -> 3 shards for plant A.
	if got := eng.Shards(); got != 3 {
		t.Fatalf("shards after 9 same-plant streams = %d, want 3", got)
	}
	if _, err := eng.AddStream("b0", newDetector(t, mb, sim.Adaptive), nil); err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	if got := eng.Shards(); got != 4 {
		t.Fatalf("distinct plant did not open a new shard: %d shards, want 4", got)
	}
	// A fresh but content-identical plant instance joins the open shard of
	// its twin rather than opening a new one.
	if _, err := eng.AddStream("b1", newDetector(t, models.SeriesRLC(), sim.Adaptive), nil); err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	if got := eng.Shards(); got != 4 {
		t.Fatalf("content-identical plant opened a new shard: %d shards, want 4", got)
	}
	if got := eng.Streams(); got != 11 {
		t.Fatalf("Streams() = %d, want 11", got)
	}
}

// TestFleetValidation covers the ingest API's error surface.
func TestFleetValidation(t *testing.T) {
	m := models.VehicleTurning()
	eng := New(Config{})
	if _, err := eng.AddStream("", newDetector(t, m, sim.Adaptive), nil); err == nil {
		t.Fatalf("empty stream id accepted")
	}
	if _, err := eng.AddStream("x", nil, nil); err == nil {
		t.Fatalf("nil detector accepted")
	}
	used := newDetector(t, m, sim.Adaptive)
	if _, err := used.Step(m.X0, nil); err != nil {
		t.Fatalf("priming step: %v", err)
	}
	if _, err := eng.AddStream("x", used, nil); err == nil {
		t.Fatalf("already-observed detector accepted")
	}
	if _, err := eng.AddStream("x", newDetector(t, m, sim.Adaptive), nil); err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	if _, err := eng.AddStream("x", newDetector(t, m, sim.Adaptive), nil); err == nil {
		t.Fatalf("duplicate stream id accepted")
	}
	if _, err := eng.Submit("nope", m.X0, nil); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("unknown stream: got %v, want ErrUnknownStream", err)
	}
	if _, err := eng.Submit("x", mat.NewVec(m.Sys.StateDim()+1), nil); err == nil {
		t.Fatalf("bad estimate dimension accepted")
	}
	if _, err := eng.Submit("x", m.X0, mat.NewVec(m.Sys.InputDim()+1)); err == nil {
		t.Fatalf("bad input dimension accepted")
	}
	if err := eng.Post("x", m.X0, nil); err == nil {
		t.Fatalf("Post without a decision callback accepted")
	}
	if _, err := eng.Submit("x", m.X0, nil); err != nil {
		t.Fatalf("valid Submit failed: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := eng.Submit("x", m.X0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrClosed", err)
	}
	if _, err := eng.AddStream("y", newDetector(t, m, sim.Adaptive), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddStream after Close: got %v, want ErrClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFleetCloseDrains checks the drain guarantee: every sample accepted
// before Close gets its decision delivered.
func TestFleetCloseDrains(t *testing.T) {
	const streams, steps = 12, 25
	m := models.DCMotorPosition()
	eng := New(Config{Workers: 3, ShardSize: 4})
	var delivered [streams]int
	for i := 0; i < streams; i++ {
		i := i
		if _, err := eng.AddStream(fmt.Sprintf("s%d", i), newDetector(t, m, sim.Adaptive), func(core.Decision, error) {
			delivered[i]++
		}); err != nil {
			t.Fatalf("AddStream: %v", err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ests, us := synthTrajectory(m, StreamSeed(3, fmt.Sprintf("s%d", i)), steps)
			for s := 0; s < steps; s++ {
				if err := eng.Post(fmt.Sprintf("s%d", i), ests[s], us[s]); err != nil {
					t.Errorf("Post: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, n := range delivered {
		if n != steps {
			t.Fatalf("stream %d: %d decisions delivered, want %d", i, n, steps)
		}
	}
	h, ok := eng.Stream("s0")
	if !ok {
		t.Fatalf("Stream(s0) not found")
	}
	if h.Steps() != steps {
		t.Fatalf("Steps() = %d, want %d", h.Steps(), steps)
	}
}

// TestFleetObservability checks the engine's metric surface end to end.
func TestFleetObservability(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, nil)
	m := models.Quadrotor()
	eng := New(Config{ShardSize: 2, Observer: o})
	const streams, steps = 3, 10
	for i := 0; i < streams; i++ {
		if _, err := eng.AddStream(fmt.Sprintf("q%d", i), newDetector(t, m, sim.Adaptive), nil); err != nil {
			t.Fatalf("AddStream: %v", err)
		}
	}
	ests, us := synthTrajectory(m, 1, steps)
	for s := 0; s < steps; s++ {
		for i := 0; i < streams; i++ {
			if _, err := eng.Submit(fmt.Sprintf("q%d", i), ests[s], us[s]); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := reg.Gauge(obs.MetricFleetStreams, "").Value(); got != streams {
		t.Fatalf("streams gauge = %v, want %d", got, streams)
	}
	if got := reg.Gauge(obs.MetricFleetShards, "").Value(); got != 2 {
		t.Fatalf("shards gauge = %v, want 2", got)
	}
	if got := reg.Counter(obs.MetricFleetSteps, "").Value(); got != streams*steps {
		t.Fatalf("steps counter = %v, want %d", got, streams*steps)
	}
	if got := reg.Counter(obs.MetricFleetBatches, "").Value(); got <= 0 {
		t.Fatalf("batches counter = %v, want > 0", got)
	}
	var batchObs int64
	for i := 0; i < 2; i++ {
		batchObs += reg.Histogram(obs.FleetShardBatchMetric(i), "", obs.FleetBatchLatencyBuckets).Count()
	}
	if batches := reg.Counter(obs.MetricFleetBatches, "").Value(); batchObs != batches {
		t.Fatalf("per-shard histogram observations %d != batch counter %d", batchObs, batches)
	}
}

// TestFleetSubmitAllocFree pins the hot path's steady-state allocation
// behavior: a silent (no-alarm) Submit performs zero heap allocations per
// stream-step, the same contract the serial pipeline holds.
func TestFleetSubmitAllocFree(t *testing.T) {
	m := models.AircraftPitch()
	eng := New(Config{Workers: 1})
	defer func() {
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	if _, err := eng.AddStream("s", newDetector(t, m, sim.Adaptive), nil); err != nil {
		t.Fatalf("AddStream: %v", err)
	}
	// Residual-zero trajectory: the estimate tracks the model prediction
	// exactly, so no alarm fires and no Dims slice is allocated.
	est := m.X0.Clone()
	u := mat.NewVec(m.Sys.InputDim())
	next := mat.NewVec(m.Sys.StateDim())
	step := func() {
		if _, err := eng.Submit("s", est, u); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		m.Sys.PredictTo(next, est, u)
		next.CopyTo(est)
	}
	for i := 0; i < 300; i++ { // warm the deadline search + scratch
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("steady-state Submit allocates %v allocs/op, want 0", avg)
	}
}

func TestStreamSeed(t *testing.T) {
	if StreamSeed(1, "a") != StreamSeed(1, "a") {
		t.Fatalf("StreamSeed not deterministic")
	}
	seen := map[uint64]string{}
	for _, fs := range []uint64{0, 1, 42} {
		for _, id := range []string{"", "a", "b", "ab", "ba", "stream-1", "stream-2"} {
			s := StreamSeed(fs, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %q and (%d,%q)", prev, fs, id)
			}
			seen[s] = fmt.Sprintf("(%d,%q)", fs, id)
		}
	}
}
