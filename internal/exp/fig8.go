package exp

import (
	"fmt"
	"strings"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fig8Result reproduces the testbed experiment of Sec. 6.2: the RC car's
// cruise-control speed trace under the +2.5 m/s bias attack, with the first
// alerts of the adaptive detector and the fixed (size 30) detector.
type Fig8Result struct {
	AttackStart   int
	AdaptiveAlert int // -1 = never
	FixedAlert    int // -1 = never
	UnsafeStep    int // first step the true speed left [2, 10] m/s

	SpeedMS  []float64 // true speed in m/s per step (x · C)
	SafeLow  float64   // 2 m/s boundary
	SafeHigh float64   // 10 m/s boundary
}

// Fig8Config parameterizes the testbed scenario.
type Fig8Config struct {
	Seed uint64
	// Observer streams live telemetry from both runs (nil = off).
	Observer *obs.Observer
}

// fig8FixedWin is the paper's fixed-window baseline size.
const fig8FixedWin = 30

// Fig8 runs the identified RC-car model through the published attack
// scenario with both detection strategies.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	m := models.TestbedCar()
	cOut := m.Sys.C.At(0, 0)

	trA, metA, metF, err := fig8Pair(m, cfg.Seed, cfg.Observer)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		AttackStart:   trA.AttackStart,
		AdaptiveAlert: metA.FirstAlarm,
		FixedAlert:    metF.FirstAlarm,
		UnsafeStep:    metA.UnsafeStep,
		SpeedMS:       make([]float64, len(trA.Records)),
		SafeLow:       2,
		SafeHigh:      10,
	}
	for i, r := range trA.Records {
		res.SpeedMS[i] = r.TrueState[0] * cOut
	}
	return res, nil
}

// fig8Pair runs one seed of the testbed scenario under the adaptive and
// the fixed(30) detector and returns the adaptive trace and both runs'
// metrics.
func fig8Pair(m *models.Model, seed uint64, o *obs.Observer) (*sim.Trace, sim.Metrics, sim.Metrics, error) {
	attA, err := sim.BuildAttack(m, "bias")
	if err != nil {
		return nil, sim.Metrics{}, sim.Metrics{}, err
	}
	trA, err := sim.Run(sim.Config{Model: m, Attack: attA, Strategy: sim.Adaptive, Seed: seed, Observer: o})
	if err != nil {
		return nil, sim.Metrics{}, sim.Metrics{}, err
	}
	attF, err := sim.BuildAttack(m, "bias")
	if err != nil {
		return nil, sim.Metrics{}, sim.Metrics{}, err
	}
	trF, err := sim.Run(sim.Config{
		Model: m, Attack: attF, Strategy: sim.FixedWindow, FixedWin: fig8FixedWin, Seed: seed,
		Observer: o,
	})
	if err != nil {
		return nil, sim.Metrics{}, sim.Metrics{}, err
	}
	return trA, sim.Analyze(trA), sim.Analyze(trF), nil
}

// Fig8CampaignResult counts the testbed scenario's outcomes over seeded
// runs: Sec. 6.2 reports the adaptive detector in time in every run and
// the fixed(30) detector in none.
type Fig8CampaignResult struct {
	Runs int
	// UnsafeRuns counts runs whose true speed left the safe region.
	UnsafeRuns int
	// AdaptiveInTime / FixedInTime count runs whose first alarm came at or
	// before the unsafe entry (sim.Metrics: detected, deadline not missed).
	AdaptiveInTime int
	FixedInTime    int
}

// Fig8Campaign replays the testbed scenario over runs seeds
// seed + i·7919 with both detectors. The observer (nil = off) streams the
// runs' telemetry and aggregates the adaptive runs' outcomes.
func Fig8Campaign(runs int, seed uint64, o *obs.Observer) (Fig8CampaignResult, error) {
	res := Fig8CampaignResult{Runs: runs}
	m := models.TestbedCar()
	for i := 0; i < runs; i++ {
		_, metA, metF, err := fig8Pair(m, seed+uint64(i)*7919, o)
		if err != nil {
			return Fig8CampaignResult{}, err
		}
		o.ObserveRun(metA.DetectionDelay, metA.Detected, metA.DeadlineMissed)
		if metA.UnsafeStep >= 0 {
			res.UnsafeRuns++
		}
		if metA.Detected && !metA.DeadlineMissed {
			res.AdaptiveInTime++
		}
		if metF.Detected && !metF.DeadlineMissed {
			res.FixedInTime++
		}
	}
	return res, nil
}

// RenderFig8Campaign prints the campaign counters.
func RenderFig8Campaign(r Fig8CampaignResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "testbed bias campaign over %d runs:\n", r.Runs)
	fmt.Fprintf(&b, "  runs reaching the unsafe region: %d\n", r.UnsafeRuns)
	fmt.Fprintf(&b, "  adaptive in-time detections:     %d\n", r.AdaptiveInTime)
	fmt.Fprintf(&b, "  fixed(30) in-time detections:    %d\n", r.FixedInTime)
	return b.String()
}

// RenderFig8 charts the speed trace with the safe boundaries and alert
// summary.
func RenderFig8(r *Fig8Result) string {
	low := make([]float64, len(r.SpeedMS))
	for i := range low {
		low[i] = r.SafeLow
	}
	var b strings.Builder
	b.WriteString(RenderChart(
		"Fig 8: testbed cruise control under +2.5 m/s bias (speed in m/s)",
		72, 12,
		Series{Name: "actual speed", Values: r.SpeedMS},
		Series{Name: "unsafe boundary (2 m/s)", Values: low},
	))
	fmt.Fprintf(&b, "attack start: step %d   unsafe entry: %s\n", r.AttackStart, stepString(r.UnsafeStep))
	fmt.Fprintf(&b, "adaptive alert: %s\n", fig8Alert(r.AdaptiveAlert, r.UnsafeStep))
	fmt.Fprintf(&b, "fixed(30) alert: %s\n", fig8Alert(r.FixedAlert, r.UnsafeStep))
	return b.String()
}

func fig8Alert(step, unsafe int) string {
	if step < 0 {
		return "never — attack unnoticed until after the unsafe region (untimely)"
	}
	verdict := "after the unsafe entry (untimely)"
	if unsafe < 0 || step <= unsafe {
		verdict = "before the unsafe entry (in time)"
	}
	return fmt.Sprintf("step %d, %s", step, verdict)
}
