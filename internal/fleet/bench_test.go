package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/sim"
)

// naiveStreamCounts are the fleet sizes the goroutine-per-stream baseline
// records in the committed ledger. 1000 is the acceptance point; the ends
// show scaling below and above it. The baseline stops at 4000: beyond that
// it only documents goroutine-scheduling collapse at minutes per data
// point, while the fleet rows below carry the scaling story.
var naiveStreamCounts = []int{100, 1000, 4000}

// fleetStreamCounts extends the ledger to the fleet engine's scaling range.
// The 20000 and 100000 rows are the flatness gate: `make bench-fleet`
// fails if the 100000-stream steps/sec falls below a configured fraction
// of the 1000-stream rate (see the flatness step in the Makefile).
var fleetStreamCounts = []int{100, 1000, 4000, 20000, 100000}

// benchDetector builds one adaptive detector for the benchmark plant. The
// aircraft-pitch model is the paper's first simulator and the cheapest
// per-step, which makes it the hardest case for the fleet engine: the less
// detection work a step does, the more scheduling overhead dominates.
func benchDetector(b *testing.B) *core.System {
	b.Helper()
	det, err := sim.Detector(sim.Config{Model: models.AircraftPitch(), Strategy: sim.Adaptive})
	if err != nil {
		b.Fatalf("Detector: %v", err)
	}
	return det
}

// BenchmarkFleetSteps measures aggregate fleet throughput: one op is one
// tick of the whole fleet (every stream ingests one sample and has its
// decision delivered). The streams=N rows feed every stream one repeated
// residual-zero sample, so the shard certificate hits on every query and
// nothing allocates: they are the silent lower bound on a step's cost, and
// the rows the flatness gate compares. The input=closed-loop row replays
// each stream's own closed-loop trace (attacks on one stream in 16 each),
// the detector's own traffic, on which the shared certificate re-anchors
// on most queries; its only allocations are the Dims lists of alarmed
// decisions.
func BenchmarkFleetSteps(b *testing.B) {
	m := models.AircraftPitch()
	for _, streams := range fleetStreamCounts {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			silent := []mat.Vec{mat.NewVec(m.Sys.StateDim())}
			zero := []mat.Vec{mat.NewVec(m.Sys.InputDim())}
			ests, us := make([][]mat.Vec, streams), make([][]mat.Vec, streams)
			for i := range ests {
				ests[i], us[i] = silent, zero
			}
			benchFleetTicks(b, ests, us)
		})
	}
	b.Run("input=closed-loop,streams=1000", func(b *testing.B) {
		const streams, steps = 1000, 400
		ests, us := make([][]mat.Vec, streams), make([][]mat.Vec, streams)
		for i := range ests {
			ests[i], us[i] = closedLoopTrace(b, m, 7, fmt.Sprintf("%s-%05d", m.Name, i), i, steps)
		}
		benchFleetTicks(b, ests, us)
	})
}

// benchFleetTicks runs BenchmarkFleetSteps' ticks over one adaptive
// aircraft-pitch stream per trace: at tick t, stream i ingests sample
// t mod len(ests[i]) of its pre-generated trace.
func benchFleetTicks(b *testing.B, ests, us [][]mat.Vec) {
	streams := len(ests)
	eng := New(Config{Workers: runtime.GOMAXPROCS(0)})
	defer func() {
		if err := eng.Close(); err != nil {
			b.Fatalf("Close: %v", err)
		}
	}()
	var wg sync.WaitGroup
	onDecision := func(core.Decision, error) { wg.Done() }
	hs := make([]*Stream, streams)
	for i := range hs {
		h, err := eng.AddStream(fmt.Sprintf("s%d", i), benchDetector(b), onDecision)
		if err != nil {
			b.Fatalf("AddStream: %v", err)
		}
		hs[i] = h
	}
	t := 0
	tick := func() {
		wg.Add(streams)
		for i, h := range hs {
			k := t % len(ests[i])
			if err := h.Post(ests[i][k], us[i][k]); err != nil {
				b.Fatalf("Post: %v", err)
			}
		}
		wg.Wait()
		t++
	}
	for i := 0; i < benchWarmupTicks; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(streams)/b.Elapsed().Seconds(), "steps/sec")
}

// benchWarmupTicks precede the measured region in both throughput
// benchmarks: enough ticks to anchor the deadline certificates AND carry
// every window past the run-prefix ramp (the first w_m steps, where the
// window still covers the whole history), so the measurement captures the
// sliding steady state a long-lived fleet actually runs in rather than the
// one-time startup transient.
const benchWarmupTicks = 50

// addStreamModels are the plants of BenchmarkFleetAddStream's rows: the
// three closed-loop benchmark plants and the 12-state quadrotor.
var addStreamModels = []string{"aircraft-pitch", "vehicle-turning", "dc-motor", "quadrotor"}

// BenchmarkFleetAddStream measures stream set-up and footprint per plant:
// one op builds an adaptive detector (sim.Detector) and registers it
// (AddStream), the per-stream work of opening a session once the plant's
// shared tables exist. Engines are swapped out of the timed region every
// 2048 streams so live memory stays bounded at any b.N. The B/stream
// metric is the live heap one warmed stream holds (see streamFootprint),
// measured once per row outside the timed region.
func BenchmarkFleetAddStream(b *testing.B) {
	const perEngine = 2048
	for _, name := range addStreamModels {
		m := models.ByName(name)
		perStream := 0.0
		b.Run("model="+name, func(b *testing.B) {
			if perStream == 0 {
				perStream = streamFootprint(b, m)
			}
			ids := make([]string, perEngine)
			for i := range ids {
				ids[i] = fmt.Sprintf("%s-%05d", name, i)
			}
			var eng *Engine
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%perEngine == 0 {
					b.StopTimer()
					if eng != nil {
						eng.Close()
					}
					eng = New(Config{})
					b.StartTimer()
				}
				det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
				if err != nil {
					b.Fatalf("Detector: %v", err)
				}
				if _, err := eng.AddStream(ids[i%perEngine], det, nil); err != nil {
					b.Fatalf("AddStream: %v", err)
				}
			}
			b.StopTimer()
			eng.Close()
			b.ReportMetric(perStream, "B/stream")
		})
	}
}

// BenchmarkNaiveSteps is the baseline the fleet is judged against: the
// obvious one-goroutine-per-stream design, each stream goroutine stepping
// its own detector behind a pair of channels, ticked in lockstep. One op
// is one tick of all streams, exactly as in BenchmarkFleetSteps. Like the
// fleet's ingest, each message carries its own copy of the sample — the
// producer owns its buffers and the consumer reads asynchronously, so a
// channel design has to copy on send (the idiomatic value-through-channel
// transfer); reusing a shared slot instead would require exactly the
// token protocol the fleet engine implements, which is no longer naive.
func BenchmarkNaiveSteps(b *testing.B) {
	m := models.AircraftPitch()
	type sample struct {
		est, u mat.Vec
	}
	for _, streams := range naiveStreamCounts {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			est := mat.NewVec(m.Sys.StateDim())
			u := mat.NewVec(m.Sys.InputDim())
			in := make([]chan sample, streams)
			out := make([]chan core.Decision, streams)
			var wg sync.WaitGroup
			for i := 0; i < streams; i++ {
				det := benchDetector(b)
				in[i] = make(chan sample, 1)
				out[i] = make(chan core.Decision, 1)
				wg.Add(1)
				go func(in chan sample, out chan core.Decision) {
					defer wg.Done()
					for smp := range in {
						dec, err := det.Step(smp.est, smp.u)
						if err != nil {
							b.Errorf("Step: %v", err)
							return
						}
						out <- dec
					}
				}(in[i], out[i])
			}
			defer func() {
				for _, c := range in {
					close(c)
				}
				wg.Wait()
			}()
			tick := func() {
				for i := 0; i < streams; i++ {
					in[i] <- sample{est: est.Clone(), u: u.Clone()}
				}
				for i := 0; i < streams; i++ {
					<-out[i]
				}
			}
			for i := 0; i < benchWarmupTicks; i++ {
				tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(streams)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}
