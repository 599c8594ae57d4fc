package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestSyncSubmitNeedsNoFreeWorker pins caller-runs stepping: with the
// engine's only worker parked inside a Post callback on one shard,
// Stream.Submit and a one-item Batcher.Submit for a stream of another
// plant still decide — the submitter steps the shard its sample woke — and
// every decision matches a serial twin.
func TestSyncSubmitNeedsNoFreeWorker(t *testing.T) {
	const steps = 20
	pm, sm := models.AircraftPitch(), models.VehicleTurning()
	eng := New(Config{Workers: 1})
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark()
	if _, err := eng.AddStream("parker", newDetector(t, pm, sim.Adaptive), func(core.Decision, error) {
		parked <- struct{}{}
		<-release
	}); err != nil {
		t.Fatalf("AddStream(parker): %v", err)
	}
	st, err := eng.AddStream("sync", newDetector(t, sm, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream(sync): %v", err)
	}
	if eng.Shards() != 2 {
		t.Fatalf("streams formed %d shards, want 2", eng.Shards())
	}
	twin := newDetector(t, sm, sim.Adaptive)

	pe, pu := synthTrajectory(pm, 1, 1)
	if err := eng.Post("parker", pe[0], pu[0]); err != nil {
		t.Fatalf("Post: %v", err)
	}
	select {
	case <-parked:
	case <-time.After(time.Minute):
		t.Fatal("worker never ran the parking callback")
	}

	type result struct {
		dec core.Decision
		err error
	}
	ests, us := synthTrajectory(sm, 9, steps)
	bt := eng.NewBatcher()
	items := make([]BatchItem, 1)
	out := make([]BatchResult, 1)
	for i := 0; i < steps; i++ {
		got := make(chan result, 1)
		go func() {
			if i%2 == 0 {
				dec, err := st.Submit(ests[i], us[i])
				got <- result{dec, err}
				return
			}
			items[0] = BatchItem{Stream: st, Estimate: ests[i], AppliedU: us[i]}
			if err := bt.Submit(items, out); err != nil {
				got <- result{err: err}
				return
			}
			got <- result{out[0].Decision, out[0].Err}
		}()
		var r result
		select {
		case r = <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("step %d: synchronous submit waited for the parked worker", i)
		}
		if r.err != nil {
			t.Fatalf("step %d: %v", i, r.err)
		}
		want, err := twin.Step(ests[i], us[i])
		if err != nil {
			t.Fatalf("serial step %d: %v", i, err)
		}
		if !decisionsEqual(r.dec, want) {
			t.Fatalf("step %d: fleet %+v != serial %+v", i, r.dec, want)
		}
	}
	unpark()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// submitOne submits one sample for s through Stream.Submit, or through a
// one-item Batcher.Submit when b is non-nil.
func submitOne(b *Batcher, s *Stream, est, u mat.Vec) (core.Decision, error) {
	if b == nil {
		return s.Submit(est, u)
	}
	out := make([]BatchResult, 1)
	if err := b.Submit([]BatchItem{{Stream: s, Estimate: est, AppliedU: u}}, out); err != nil {
		return core.Decision{}, err
	}
	return out[0].Decision, out[0].Err
}

// TestSharedStreamDecisionReachesItsSubmitter pins decision delivery when
// two synchronous submitters share a stream, as two wire handles bound to
// one stream do. The telemetry clock freezes the first submitter at the
// end of the batch it steps itself: its decision is delivered and its
// token released, but it still owns the shard. The second submitter's
// sample then waits in that shard, so the second call must not return
// before the first thaws, and each call must get the decision for its own
// step. A per-stream decision slot fails this: the second call takes the
// first one's decision at once.
func TestSharedStreamDecisionReachesItsSubmitter(t *testing.T) {
	m := models.VehicleTurning()
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batcher=%v", batched), func(t *testing.T) {
			var reads atomic.Int32
			frozen := make(chan struct{})
			thaw := make(chan struct{})
			// stepBatch reads the clock at the start and at the end of a
			// batch; the second reading ends the first batch.
			clock := func() time.Time {
				if reads.Add(1) == 2 {
					close(frozen)
					<-thaw
				}
				return time.Unix(0, 0)
			}
			eng := New(Config{Workers: 1, Observer: obs.NewObserver(nil, nil), Clock: clock})
			s, err := eng.AddStream("s", newDetector(t, m, sim.Adaptive), nil)
			if err != nil {
				t.Fatalf("AddStream: %v", err)
			}
			ests, us := synthTrajectory(m, 5, 2)
			type result struct {
				dec core.Decision
				err error
			}
			submit := func(i int, got chan<- result) {
				var b *Batcher
				if batched {
					b = eng.NewBatcher()
				}
				dec, err := submitOne(b, s, ests[i], us[i])
				got <- result{dec, err}
			}
			first, second := make(chan result, 1), make(chan result, 1)
			go submit(0, first)
			select {
			case <-frozen:
			case <-time.After(time.Minute):
				t.Fatal("first submit never stepped its batch")
			}
			go submit(1, second)
			select {
			case r := <-second:
				close(thaw)
				t.Fatalf("second submit returned step %d (err %v) while its sample waited in the frozen shard", r.dec.Step, r.err)
			case <-time.After(100 * time.Millisecond):
			}
			close(thaw)
			twin := newDetector(t, m, sim.Adaptive)
			for i, got := range []chan result{first, second} {
				var r result
				select {
				case r = <-got:
				case <-time.After(time.Minute):
					t.Fatalf("submit %d never returned", i)
				}
				if r.err != nil {
					t.Fatalf("submit %d: %v", i, r.err)
				}
				want, err := twin.Step(ests[i], us[i])
				if err != nil {
					t.Fatalf("serial step %d: %v", i, err)
				}
				if !decisionsEqual(r.dec, want) {
					t.Fatalf("submit %d got %+v, want its own step %+v", i, r.dec, want)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestConcurrentSubmittersShareStream races two synchronous submitters on
// one stream, one through Stream.Submit and one through Batcher waves that
// also carry a second stream, and checks that every call got the decision
// for its own sample. The steps the calls report order their samples into
// the one sequence the stream must have ingested; a serial twin replaying
// that sequence must reproduce every reported decision, and a decision
// handed to the wrong call pairs a sample with another sample's step.
func TestConcurrentSubmittersShareStream(t *testing.T) {
	const rounds = 2000
	m := models.AircraftPitch()
	eng := New(Config{Workers: 2})
	s, err := eng.AddStream("s", newDetector(t, m, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream(s): %v", err)
	}
	om := models.DCMotorPosition()
	other, err := eng.AddStream("other", newDetector(t, om, sim.Adaptive), nil)
	if err != nil {
		t.Fatalf("AddStream(other): %v", err)
	}
	oe, ou := synthTrajectory(om, 3, 1)
	// Each submitter feeds its own trajectory, so the two interleave into
	// residual jumps whose decisions depend on which sample sits at which
	// step.
	type call struct {
		est, u mat.Vec
		dec    core.Decision
	}
	calls := [2][]call{}
	for g := range calls {
		ests, us := synthTrajectory(m, uint64(40+g), rounds)
		calls[g] = make([]call, rounds)
		for i := range calls[g] {
			calls[g][i] = call{est: ests[i], u: us[i]}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range calls[0] {
			c := &calls[0][i]
			dec, err := s.Submit(c.est, c.u)
			if err != nil {
				errs <- fmt.Errorf("Submit %d: %w", i, err)
				return
			}
			c.dec = dec
		}
	}()
	go func() {
		defer wg.Done()
		b := eng.NewBatcher()
		items := make([]BatchItem, 2)
		out := make([]BatchResult, 2)
		for i := range calls[1] {
			c := &calls[1][i]
			items[0] = BatchItem{Stream: other, Estimate: oe[0], AppliedU: ou[0]}
			items[1] = BatchItem{Stream: s, Estimate: c.est, AppliedU: c.u}
			n := 1 + i%2 // alternate one-item frames with two-item waves
			if err := b.Submit(items[2-n:], out[:n]); err != nil {
				errs <- fmt.Errorf("batch %d: %w", i, err)
				return
			}
			for _, r := range out[:n] {
				if r.Err != nil {
					errs <- fmt.Errorf("batch %d: %w", i, r.Err)
					return
				}
			}
			c.dec = out[n-1].Decision
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seq := make([]*call, 2*rounds)
	for g := range calls {
		for i := range calls[g] {
			c := &calls[g][i]
			if c.dec.Step < 0 || c.dec.Step >= len(seq) || seq[c.dec.Step] != nil {
				t.Fatalf("submitter %d call %d reported step %d twice or out of range", g, i, c.dec.Step)
			}
			seq[c.dec.Step] = c
		}
	}
	twin := newDetector(t, m, sim.Adaptive)
	for k, c := range seq {
		want, err := twin.Step(c.est, c.u)
		if err != nil {
			t.Fatalf("serial step %d: %v", k, err)
		}
		if !decisionsEqual(c.dec, want) {
			t.Fatalf("step %d: a submitter got %+v, but its sample at that step decides %+v", k, c.dec, want)
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
