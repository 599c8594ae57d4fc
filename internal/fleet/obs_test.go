package fleet

import (
	"fmt"
	"testing"

	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestFleetShardRollupCounters checks the per-shard series against the
// fleet totals: shard steps/alarms/streams must sum to the engine-wide
// counters, the alarm counter must agree with the decisions actually
// delivered, and the deadline-pressure histogram must have collected one
// observation per certified adaptive step.
func TestFleetShardRollupCounters(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, nil)
	m := models.Quadrotor()
	eng := New(Config{ShardSize: 2, Observer: o})
	const streams, steps = 5, 30
	var alarmed int64
	for i := 0; i < streams; i++ {
		if _, err := eng.AddStream(fmt.Sprintf("q%d", i), newDetector(t, m, sim.Adaptive), nil); err != nil {
			t.Fatalf("AddStream: %v", err)
		}
	}
	shards := eng.Shards()
	// The spiked synthetic trajectory fires alarms, so the alarm counters
	// actually count something.
	ests, us := synthTrajectory(m, 1, steps)
	for s := 0; s < steps; s++ {
		for i := 0; i < streams; i++ {
			dec, err := eng.Submit(fmt.Sprintf("q%d", i), ests[s], us[s])
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if dec.Alarmed() {
				alarmed++
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var shardSteps, shardAlarms int64
	var shardStreams float64
	for i := 0; i < shards; i++ {
		shardSteps += reg.Counter(obs.FleetShardMetric(obs.MetricFleetShardSteps, i), "").Value()
		shardAlarms += reg.Counter(obs.FleetShardMetric(obs.MetricFleetShardAlarms, i), "").Value()
		shardStreams += reg.Gauge(obs.FleetShardMetric(obs.MetricFleetShardStreams, i), "").Value()
	}
	if total := reg.Counter(obs.MetricFleetSteps, "").Value(); shardSteps != total || total != streams*steps {
		t.Errorf("shard steps sum %d vs fleet %d (want %d)", shardSteps, total, streams*steps)
	}
	alarms := reg.Counter(obs.MetricFleetAlarms, "").Value()
	if shardAlarms != alarms {
		t.Errorf("shard alarms sum %d vs fleet %d", shardAlarms, alarms)
	}
	if alarms == 0 {
		t.Error("spiked trajectory produced no counted alarms")
	}
	if alarms != alarmed {
		t.Errorf("alarm counter %d vs delivered alarmed decisions %d", alarms, alarmed)
	}
	if shardStreams != streams {
		t.Errorf("shard streams sum %v, want %d", shardStreams, streams)
	}
	// Every adaptive step runs one certified deadline query, so the
	// fleet-wide pressure histogram saw every stream-step.
	hp := reg.Histogram(obs.MetricFleetDeadlinePressure, "", obs.DeadlinePressureBuckets)
	if got := hp.Count(); got != streams*steps {
		t.Errorf("deadline pressure observations = %d, want %d", got, streams*steps)
	}

	// The whole picture must also assemble through the snapshot rollup.
	roll, ok := obs.FleetRollupFromSnapshot(reg.Snapshot())
	if !ok {
		t.Fatal("no rollup from a fleet registry")
	}
	if roll.Steps != streams*steps || roll.Alarms != alarms || len(roll.PerShard) != shards {
		t.Errorf("rollup = %+v", roll)
	}
	if roll.DeadlinePressure.Count != streams*steps {
		t.Errorf("rollup pressure count = %d", roll.DeadlinePressure.Count)
	}
}

// TestFleetStreamIDFlowsToSink checks the drill-down path end to end
// inside the engine: AddStream stamps the detector, so trace events arrive
// stream-attributed and a StreamTail isolates one stream's trajectory.
func TestFleetStreamIDFlowsToSink(t *testing.T) {
	tail := obs.NewStreamTail(64, "q1")
	o := obs.NewObserver(nil, tail)
	m := models.Quadrotor()
	eng := New(Config{ShardSize: 2, Observer: o})
	const streams, steps = 3, 8
	for i := 0; i < streams; i++ {
		// The detectors share the tailing observer: each stream's events are
		// emitted stream-stamped, and the tail keeps only its target's.
		det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive, Observer: o})
		if err != nil {
			t.Fatalf("Detector: %v", err)
		}
		if _, err := eng.AddStream(fmt.Sprintf("q%d", i), det, nil); err != nil {
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
	evs := tail.Events()
	if len(evs) != steps {
		t.Fatalf("tail retained %d events, want %d (one per q1 step)", len(evs), steps)
	}
	for i, ev := range evs {
		if ev.StreamID != "q1" || ev.Step != i {
			t.Errorf("event %d = stream %q step %d", i, ev.StreamID, ev.Step)
		}
	}
}

// TestFleetSubmitAllocFreeWithMetrics re-pins the zero-alloc contract with
// a metrics-only observer attached: the per-shard counters, the alarm
// counters, the deadline-pressure observation and the re-anchor counter
// must all ride the hot path without a single heap allocation per
// stream-step.
func TestFleetSubmitAllocFreeWithMetrics(t *testing.T) {
	m := models.AircraftPitch()
	o := obs.NewObserver(obs.NewRegistry(), nil)
	eng := New(Config{Workers: 1, Observer: o})
	defer func() {
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive, Observer: o})
	if err != nil {
		t.Fatalf("Detector: %v", err)
	}
	if _, err := eng.AddStream("s", det, nil); err != nil {
		t.Fatalf("AddStream: %v", err)
	}
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
		t.Fatalf("metrics-on Submit allocates %v allocs/op, want 0", avg)
	}
	// Driven by a bang-bang input, the silent trajectory sweeps the pitch
	// state back and forth, leaving the certified ball as it goes, so the
	// re-anchor counter moves inside these runs.
	reg := o.Registry()
	reanchors := reg.Counter(obs.MetricFleetReanchors, "")
	before := reanchors.Value()
	i := 0
	sweep := func() {
		i++
		u[0] = 7
		if i%20 >= 10 {
			u[0] = -7
		}
		step()
	}
	if avg := testing.AllocsPerRun(200, sweep); avg != 0 {
		t.Fatalf("metrics-on re-anchoring Submit allocates %v allocs/op, want 0", avg)
	}
	if got := reanchors.Value() - before; got < 100 {
		t.Errorf("re-anchor counter recorded %d re-anchors over 200 sweeping steps, want at least 100", got)
	}
	// The metrics actually recorded the run (the observer was not bypassed).
	if reg.Counter(obs.MetricFleetSteps, "").Value() < 500 {
		t.Error("fleet step counter did not record the run")
	}
	if reg.Histogram(obs.MetricFleetDeadlinePressure, "", obs.DeadlinePressureBuckets).Count() < 500 {
		t.Error("deadline pressure histogram did not record the run")
	}
}
