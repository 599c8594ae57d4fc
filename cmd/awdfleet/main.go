// Command awdfleet demonstrates the fleet engine: it registers thousands
// of concurrent detector streams over one plant model, drives them in
// lockstep ticks with per-stream noisy estimates, and reports aggregate
// throughput. With -metrics-addr the run exposes the fleet's live
// telemetry (stream/shard gauges, step counters, per-shard batch latency
// and rollup counters, the deadline-pressure histogram, run-queue depth)
// on Prometheus /metrics and JSON /snapshot, plus a /stream drill-down
// endpoint tailing one stream's trace — the surface cmd/awdtop renders.
//
// Usage:
//
//	awdfleet -streams 4000 -steps 500
//	awdfleet -model quadrotor -streams 1000 -workers 4 -metrics-addr :9090
//	awdfleet -streams 2000 -steps 100000 -tick 10ms -metrics-addr :9090   # live demo for awdtop
//	awdfleet -streams 500 -steps 200 -metrics-dump fleet.prom             # post-run inspection
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/state"
)

func main() {
	var (
		modelName   = flag.String("model", "aircraft-pitch", "plant model shared by every stream (see awdsim -list)")
		streams     = flag.Int("streams", 1000, "number of concurrent detector streams")
		workers     = flag.Int("workers", 0, "shard-processing goroutines for Post samples and the earlier shards of a batch; a synchronous submit steps the shard its last sample wakes itself (0 = GOMAXPROCS)")
		steps       = flag.Int("steps", 200, "lockstep ticks to drive the fleet")
		tick        = flag.Duration("tick", 0, "sleep between lockstep ticks (paces a live demo; 0 = full speed)")
		seed        = flag.Uint64("seed", 1, "fleet seed; per-stream seeds derive via fleet.StreamSeed")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, JSON /snapshot, /stream drill-down, expvar, and pprof on this address (e.g. :9090)")
		metricsDump = flag.String("metrics-dump", "", "write a final Prometheus-text metrics snapshot to this file on exit (- = stdout)")
		traceOut    = flag.String("trace-out", "", "write per-step JSONL trace events, stream-attributed, to this file (- = stdout)")
		tailStream  = flag.String("tail-stream", "", "initial /stream drill-down target (default: the first stream)")
		ckptOut     = flag.String("checkpoint-out", "", "write a whole-fleet state snapshot (internal/state codec) to this file after the run")
		restoreFrom = flag.String("restore-from", "", "restore the fleet from a -checkpoint-out snapshot instead of starting cold (-streams is taken from the snapshot)")
	)
	flag.Parse()

	// The drill-down tail rides on the metrics mux; without an endpoint it
	// has nothing to serve, so it is only wired up when -metrics-addr is
	// set. -metrics-dump alone still enables a (serverless) registry below.
	var tail *obs.RingSink
	bootOpts := []obs.Option{}
	if *metricsAddr != "" {
		target := *tailStream
		if target == "" && *streams > 0 {
			target = streamID(0)
		}
		tail = obs.NewStreamTail(512, target)
		bootOpts = append(bootOpts, obs.WithStreamTail(tail))
	}
	obsrv, boundAddr, shutdownObs, err := obs.Bootstrap(*metricsAddr, *traceOut, bootOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "awdfleet:", err)
		os.Exit(1)
	}
	defer func() {
		if err := shutdownObs(); err != nil {
			fmt.Fprintln(os.Stderr, "awdfleet: telemetry:", err)
		}
	}()
	if obsrv == nil && *metricsDump != "" {
		// Metrics-only observer: no endpoint, no trace sink, but the run is
		// still inspectable post-hoc through the dump.
		obsrv = obs.NewObserver(obs.NewRegistry(), nil)
	}
	if boundAddr != "" {
		fmt.Fprintf(os.Stderr, "awdfleet: telemetry on http://%s/metrics (JSON: /snapshot, drill-down: /stream)\n", boundAddr)
	}

	m := models.ByName(*modelName)
	if m == nil {
		fmt.Fprintf(os.Stderr, "awdfleet: unknown model %q (valid: %s)\n",
			*modelName, strings.Join(models.Names(), ", "))
		os.Exit(1)
	}
	if *streams < 1 || *steps < 1 {
		fmt.Fprintln(os.Stderr, "awdfleet: -streams and -steps must be >= 1")
		os.Exit(1)
	}

	eng := fleet.New(fleet.Config{Workers: *workers, Observer: obsrv})
	var (
		wg     sync.WaitGroup
		alarms atomic.Uint64
		failed atomic.Uint64
	)
	onDecision := func(dec core.Decision, err error) {
		if err != nil {
			failed.Add(1)
		} else if dec.Alarm {
			alarms.Add(1)
		}
		wg.Done()
	}

	// Every stream runs the paper's adaptive detector over the one shared
	// registry instance of the plant, so all of them read one set of
	// reachability tables; the engine groups them into shards by their
	// bit-identical model matrices. The shared observer makes each
	// stream's steps visible on /metrics and its stream-stamped trace
	// events flow to the /stream tail and -trace-out sink.
	if *restoreFrom != "" {
		// Warm start: rebuild every stream recorded in the snapshot (same
		// model and strategy as a cold run) and restore its decision state —
		// ring, window sums, step counts — through the shared codec.
		blob, err := state.ReadFile(*restoreFrom)
		if err != nil {
			fmt.Fprintln(os.Stderr, "awdfleet:", err)
			os.Exit(1)
		}
		dec := state.NewDecoder(blob)
		if err := dec.Header(); err != nil {
			fmt.Fprintln(os.Stderr, "awdfleet:", err)
			os.Exit(1)
		}
		err = eng.Restore(dec, func(id string) (*core.System, func(core.Decision, error), error) {
			det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive, Observer: obsrv})
			return det, onDecision, err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "awdfleet: restore %s: %v\n", *restoreFrom, err)
			os.Exit(1)
		}
		*streams = eng.Streams()
		fmt.Printf("restored %d streams from %s\n", *streams, *restoreFrom)
	}
	hs := make([]*fleet.Stream, *streams)
	gens := make([]noise.Gen, *streams)
	for i := range hs {
		id := streamID(i)
		if *restoreFrom != "" {
			h, ok := eng.Stream(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "awdfleet: snapshot has no stream %q (was it written by awdfleet?)\n", id)
				os.Exit(1)
			}
			hs[i] = h
		} else {
			det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive, Observer: obsrv})
			if err != nil {
				fmt.Fprintln(os.Stderr, "awdfleet:", err)
				os.Exit(1)
			}
			h, err := eng.AddStream(id, det, onDecision)
			if err != nil {
				fmt.Fprintln(os.Stderr, "awdfleet:", err)
				os.Exit(1)
			}
			hs[i] = h
		}
		// Deterministic per-stream estimates: sensor noise inside the
		// model's ε-ball, the silent steady state a monitoring fleet
		// spends its life in.
		gens[i] = noise.NewBall(fleet.StreamSeed(*seed, id), m.Sys.StateDim(), m.Eps)
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("fleet: %d streams over %q in %d shards, %d workers\n",
		eng.Streams(), m.Name, eng.Shards(), nw)

	u := make([]float64, m.Sys.InputDim())
	start := time.Now()
	var slept time.Duration
	for t := 0; t < *steps; t++ {
		wg.Add(*streams)
		for i, h := range hs {
			if err := h.Post(gens[i].Sample(t), u); err != nil {
				fmt.Fprintln(os.Stderr, "awdfleet:", err)
				os.Exit(1)
			}
		}
		wg.Wait()
		if *tick > 0 && t < *steps-1 {
			time.Sleep(*tick)
			slept += *tick
		}
	}
	elapsed := time.Since(start)
	if *ckptOut != "" {
		n, err := state.EncodeFile(*ckptOut, func(enc *state.Encoder) error {
			enc.Header()
			return eng.Snapshot(enc)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "awdfleet:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint: %d streams, %d bytes -> %s\n", eng.Streams(), n, *ckptOut)
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "awdfleet:", err)
		os.Exit(1)
	}

	total := uint64(*streams) * uint64(*steps)
	busy := elapsed - slept
	if busy <= 0 {
		busy = elapsed
	}
	fmt.Printf("drove %d stream-steps in %v: %.0f steps/sec\n",
		total, elapsed.Round(time.Millisecond), float64(total)/busy.Seconds())
	fmt.Printf("alarms: %d (%.2f%% of steps), errors: %d\n",
		alarms.Load(), 100*float64(alarms.Load())/float64(total), failed.Load())

	if *metricsDump != "" && obsrv.Enabled() {
		if err := dumpMetrics(*metricsDump, obsrv.Registry()); err != nil {
			fmt.Fprintln(os.Stderr, "awdfleet:", err)
			os.Exit(1)
		}
	}
}

// streamID names stream i the way every awdfleet run does; awdtop relies
// on the same shape for its default drill-down target.
func streamID(i int) string { return fmt.Sprintf("stream-%04d", i) }

// dumpMetrics writes the registry's final Prometheus-text state, so a
// finished fleet run is inspectable without a live scrape.
func dumpMetrics(path string, reg *obs.Registry) error {
	if path == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics dump: %w", err)
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metrics dump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "awdfleet: metrics snapshot written to %s\n", path)
	return nil
}
