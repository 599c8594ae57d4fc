package fleet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/sim"
)

// refSource is a standalone detector's deadline source for the wide-tile
// test: the detector's own estimator answers, while the query is counted
// and replayed, with its pressure read, on a reference certificate shared
// by every reference detector of the plant. Stepping the reference
// detectors in batch order thus feeds that certificate the query sequence
// the fleet's shard certificate must see.
type refSource struct {
	est  *deadline.Estimator
	cert *deadline.Certificate
	n    *int64
}

func (r refSource) FromState(x0 mat.Vec) int {
	*r.n++
	r.cert.FromState(x0)
	r.cert.TakePressure()
	return r.est.FromState(x0)
}

// TestFleetClosedLoopWideTile drives the shard certificates' batch-order
// queries with the detector's own traffic at full width: a default Config (shards of one
// 256-stream tile), 256 adaptive streams each of two plants, every step
// one Batcher.Submit wave, each stream replaying its own closed-loop trace
// with attacks on one stream in 16 each. Streams of a plant share one
// certificate, which re-anchors on most queries, so this walks mid-tile
// re-anchors the way serving does. Every decision must be bit-identical to
// a standalone core.System, every query must leave one pressure reading,
// the re-anchor counter must match the full scans of a reference
// certificate fed the same queries serially and show the path actually
// ran, and each shard certificate must end in its reference's state: probe
// queries must get the same deadlines, pressures and full scans from both.
func TestFleetClosedLoopWideTile(t *testing.T) {
	const perPlant, steps = 256, 220
	reg := obs.NewRegistry()
	eng := New(Config{Observer: obs.NewObserver(reg, nil)})
	defer eng.Close()

	type streamCase struct {
		s        *Stream
		ref      *core.System
		ests, us []mat.Vec
	}
	var queries int64
	var cases []*streamCase
	var refCerts []*deadline.Certificate
	for _, m := range []*models.Model{models.AircraftPitch(), models.VehicleTurning()} {
		var cert *deadline.Certificate
		for k := 0; k < perPlant; k++ {
			id := fmt.Sprintf("%s-%05d", m.Name, k)
			sc := &streamCase{ref: newDetector(t, m, sim.Adaptive)}
			if cert == nil {
				cert = deadline.NewCertificate(sc.ref.Estimator())
				refCerts = append(refCerts, cert)
			}
			sc.ref.SetDeadlineSource(refSource{est: sc.ref.Estimator(), cert: cert, n: &queries})
			sc.ests, sc.us = closedLoopTrace(t, m, 7, id, k, steps)
			var err error
			if sc.s, err = eng.AddStream(id, newDetector(t, m, sim.Adaptive), nil); err != nil {
				t.Fatalf("AddStream(%s): %v", id, err)
			}
			cases = append(cases, sc)
		}
	}

	bt := eng.NewBatcher()
	items := make([]BatchItem, len(cases))
	out := make([]BatchResult, len(cases))
	alarms := 0
	for step := 0; step < steps; step++ {
		for i, sc := range cases {
			items[i] = BatchItem{Stream: sc.s, Estimate: sc.ests[step], AppliedU: sc.us[step]}
		}
		if err := bt.Submit(items, out); err != nil {
			t.Fatalf("Submit(step %d): %v", step, err)
		}
		for i, sc := range cases {
			if out[i].Err != nil {
				t.Fatalf("step %d stream %s: %v", step, sc.s.ID(), out[i].Err)
			}
			want, err := sc.ref.Step(sc.ests[step], sc.us[step])
			if err != nil {
				t.Fatalf("step %d stream %s: serial: %v", step, sc.s.ID(), err)
			}
			if !decisionsEqual(out[i].Decision, want) {
				t.Fatalf("step %d stream %s: fleet %+v != serial %+v", step, sc.s.ID(), out[i].Decision, want)
			}
			if want.Alarmed() {
				alarms++
			}
		}
	}

	var refScans uint64
	for _, ref := range refCerts {
		refScans += ref.Reanchors()
	}
	pressure := reg.Histogram(obs.MetricFleetDeadlinePressure, "", obs.DeadlinePressureBuckets).Count()
	reanchors := reg.Counter(obs.MetricFleetReanchors, "").Value()
	if pressure != queries {
		t.Errorf("pressure observations %d, want one per adaptive query (%d)", pressure, queries)
	}
	if uint64(reanchors) != refScans {
		t.Errorf("re-anchor counter %d, reference certificates ran %d full scans", reanchors, refScans)
	}
	if queries == 0 || float64(reanchors) < 0.5*float64(queries) {
		t.Errorf("%d re-anchors over %d queries; the closed-loop traffic should re-anchor on at least half", reanchors, queries)
	}
	if alarms == 0 {
		t.Error("no alarms: the attacked streams never fired")
	}

	// Each plant's streams fill one shard, queried in item order. Probe
	// its certificate and the reference with every stream's last estimate,
	// twice over: equal anchors answer every probe alike.
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, ref := range refCerts {
		plant := cases[i*perPlant : (i+1)*perPlant]
		got := plant[0].s.cert
		gotScans, refScans := got.Reanchors(), ref.Reanchors()
		for pass := 0; pass < 2; pass++ {
			for k, sc := range plant {
				x := sc.ests[steps-1]
				dg, dr := got.FromState(x), ref.FromState(x)
				pg, okg := got.TakePressure()
				pr, okr := ref.TakePressure()
				if dg != dr || okg != okr || math.Float64bits(pg) != math.Float64bits(pr) {
					t.Fatalf("%s probe %d (pass %d): shard certificate gave deadline %d, pressure %v (%v); reference %d, %v (%v)",
						plant[0].s.ID(), k, pass, dg, pg, okg, dr, pr, okr)
				}
			}
		}
		if g, r := got.Reanchors()-gotScans, ref.Reanchors()-refScans; g != r {
			t.Errorf("%s: probes ran %d full scans on the shard certificate, %d on the reference", plant[0].s.ID(), g, r)
		}
	}
	t.Logf("%d streams x %d steps in %d batches: %d queries, %d re-anchors (%.1f%%), %d alarmed decisions",
		len(cases), steps, reg.Counter(obs.MetricFleetBatches, "").Value(), queries, reanchors,
		100*float64(reanchors)/float64(queries), alarms)
}
