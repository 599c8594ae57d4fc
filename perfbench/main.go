// Command perfbench is the repository's end-to-end benchmark: it starts
// cmd/awdserve as a separate process on loopback and drives one named
// workload of per-stream sensor traffic through it from this single
// generator process, over one data connection plus one control connection
// for Checkpoint. Every decision is checked bit for bit against serial
// core.System.Step references. See README.md for the workloads and metrics.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	perfbench -awdserve bin/awdserve --workload hover-fleet --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics with telemetry off; --trace 1
// prints the per-layer metrics, timed around calls into each module from
// this program on the same generated inputs. The last line of standard
// output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// generatorProcs is the generator's GOMAXPROCS while it drives awdserve:
// its send loop is sequential. awdserve gets the remaining CPUs, so the
// two processes' Go schedulers do not spin against each other; on the
// 2-CPU machine this was tuned on, that made throughput and CPU per sample
// repeat several times more closely than GOMAXPROCS = nproc for both.
const generatorProcs = 1

// withProcs runs fn with GOMAXPROCS at n.
func withProcs(n int, fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return fn()
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	awdserve string    // awdserve binary
	workdir  string    // checkpoints and other run files
	scale    float64   // multiplies every workload's stream count
	out      io.Writer // human-readable report
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{scale: 1, out: os.Stdout}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: hover-fleet, closed-loop-mix or per-sample")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input of the workload is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time: 60% latency phases, 40% capacity phases")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&cfg.awdserve, "awdserve", "", "path of the awdserve binary to benchmark")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for checkpoints")
	flag.Parse()
	cfg.trace = trace != 0

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.awdserve == "" {
		return nil, fmt.Errorf("-awdserve is required")
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	ckptDir, err := filepath.Abs(filepath.Join(cfg.workdir, "ckpt"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	serverProcs := max(1, runtime.NumCPU()-generatorProcs)
	prov, _ := json.Marshal(stamp(ckptDir, generatorProcs, serverProcs))
	fmt.Fprintf(cfg.out, "provenance %s\n", prov)

	// An end-to-end run's measured time is 60% open-loop latency phases and
	// 40% closed-loop capacity phases, split evenly over its sessions. A
	// traced run has one session with an untraced and a traced latency
	// phase of 30% each.
	sessions := w.sessions
	per := time.Duration(cfg.seconds * float64(time.Second) / float64(sessions))
	l, phases := per*6/10, 1
	if cfg.trace {
		sessions, per = 1, time.Duration(cfg.seconds*float64(time.Second))
		l, phases = per*3/10, 2
	}
	t := time.Now()
	tr, err := build(w, cfg.seed, cfg.scale, l, phases, per*4/10)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "inputs %s seed %d: %s; generated with references in %.2fs (outside every timed phase)\n",
		w.name, cfg.seed, tr.describe(), time.Since(t).Seconds())

	if cfg.trace {
		return traced(cfg, tr, ckptDir, serverProcs)
	}
	return endToEnd(cfg, tr, sessions, ckptDir, serverProcs)
}

// describe summarizes the traffic the inputs make.
func (tr *traffic) describe() string {
	var parts []string
	for _, g := range tr.plantCounts() {
		parts = append(parts, fmt.Sprintf("%d %s @%gHz", g.n, g.p.model.Name, 1/g.p.model.Sys.Dt))
	}
	frames := "IngestBatch frames of up to 256"
	if tr.w.perSample {
		frames = "one MsgIngest frame per sample"
	}
	return fmt.Sprintf("%s; %.0f samples/s offered; %s, %.1f request bytes/sample; %d capacity samples/stream",
		strings.Join(parts, ", "), tr.offered(), frames, tr.requestBytes(), tr.rounds)
}

type plantCount struct {
	p *plant
	n int
}

func (tr *traffic) plantCounts() []plantCount {
	var out []plantCount
	for _, s := range tr.streams {
		if len(out) == 0 || out[len(out)-1].p != s.p {
			out = append(out, plantCount{p: s.p})
		}
		out[len(out)-1].n++
	}
	return out
}

// offered is the latency phase's offered load in samples per second.
func (tr *traffic) offered() float64 {
	r := 0.0
	for _, s := range tr.streams {
		r += 1 / s.p.period.Seconds()
	}
	return r
}

// requestBytes is the mean request bytes per sample on the wire, from the
// protocol's frame layout: a 5-byte header, then for MsgIngestBatch a u32
// count and per sample a u64 handle and two length-prefixed float vectors,
// and for MsgIngest one such sample.
func (tr *traffic) requestBytes() float64 {
	bytes, samples := 0, 0
	for _, gw := range tr.gateways {
		sample := 8 + 4 + 8*gw.p.n + 4 + 8*gw.p.m
		if tr.w.perSample {
			bytes += 5 + sample
		} else {
			bytes += 5 + 4 + len(gw.streams)*sample
		}
		samples += len(gw.streams)
	}
	return float64(bytes) / float64(samples)
}

// ckptBurst is how many back-to-back Checkpoint RPCs close each session,
// after its capacity phase; their durations are the checkpoint cost
// reported. A latency phase holds only one checkpoint: a hover-fleet
// checkpoint with its catch-up disturbs over a second of traffic, and more
// would reach the latency median.
const ckptBurst = 3

func endToEnd(cfg config, tr *traffic, sessions int, ckptDir string, serverProcs int) (*result, error) {
	chk := &checker{}
	lat := &latencyStats{}
	capst := &capacityStats{}
	var setups, rss, p50s, ckpts []float64
	// Each session is a fresh awdserve process: set-up, a latency phase and
	// a capacity phase. Metrics are medians over the sessions (or over the
	// capacity slices), so one slow process does not move a run's figures.
	err := withProcs(generatorProcs, func() error {
		for i := 0; i < sessions; i++ {
			ss, d, err := openSession(cfg.awdserve, ckptDir, serverProcs, tr, chk)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			n := len(lat.lat)
			err = ss.latencyPhase(lat, tr.latency)
			p50s = append(p50s, quantile(lat.lat[n:], 0.5))
			if err == nil {
				err = ss.capacityPhase(capst, 3*tr.capacity)
			}
			for j := 0; j < ckptBurst && err == nil; j++ {
				var ms float64
				if ms, err = ss.checkpoint(); err == nil {
					ckpts = append(ckpts, ms)
				}
			}
			var peak int64
			if err == nil {
				peak, err = ss.srv.peakRSS()
			}
			ss.close()
			if err != nil {
				return err
			}
			rss = append(rss, float64(peak)/(1<<20))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "sessions: %d awdserve processes, each opening %d streams and warming them %d samples; setup s %v\n",
		sessions, len(tr.streams), warmSamples, setups)
	if !chk.ok() {
		fmt.Fprintf(cfg.out, "decision check FAILED: %d mismatches, %d failed; first: %s\n", chk.mismatches, chk.failed, chk.first)
	} else {
		fmt.Fprintf(cfg.out, "decision check passed: %d decisions equal their serial references\n", chk.decided)
	}

	n := len(lat.lat)
	fmt.Fprintf(cfg.out, "latency phases: %.1fs open loop per session, %d samples (%d beyond p99, %d beyond p99.9), %d sends, generator lag p50 %.0fus p99 %.0fus\n",
		tr.latency.Seconds(), n, beyond(n, 0.99), beyond(n, 0.999), len(lat.lag), median(lat.lag), quantile(lat.lag, 0.99))
	fmt.Fprintf(cfg.out, "per-session latency p50 us %v; pooled p99 %.0fus, p99.9 %.0fus (per-layer metrics: they do not repeat run to run)\n",
		roundAll(p50s), quantile(lat.lat, 0.99), quantile(lat.lat, 0.999))
	fmt.Fprintf(cfg.out, "late_frac %.6f (%d of %d samples decided more than one control period after schedule)\n",
		frac(lat.late, lat.samples), lat.late, lat.samples)
	fmt.Fprintf(cfg.out, "error_frac %.6f (%d of %d attempted samples failed or got no decision)\n",
		frac(chk.failed, chk.attempted), chk.failed, chk.attempted)
	fmt.Fprintf(cfg.out, "checkpoints: ms %v during latency phases, ms %v in the bursts after capacity phases (median %.1f; a per-layer metric: fsync-bound, it does not repeat run to run)\n",
		roundAll(lat.ckpt), roundAll(ckpts), median(ckpts))
	fmt.Fprintf(cfg.out, "capacity phases: %d slices closed loop, samples %v, samples/s %v, awdserve CPU us/sample %v\n",
		len(capst.samples), capst.samples, roundAll(capst.throughput()), roundAll(capst.cpuPerSample()))
	fmt.Fprintf(cfg.out, "awdserve peak RSS MB %v\n", roundAll(rss))
	fmt.Fprintf(cfg.out, "decisions: alarm share %.4f, complementary share %.4f, mean window %.2f\n",
		frac(chk.alarms, chk.decided), frac(chk.complementary, chk.decided), float64(chk.windowSum)/float64(chk.decided))

	return &result{
		Correct:   chk.ok(),
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"setup_s":                  {median(setups), "s"},
			"throughput_samples_per_s": {median(capst.throughput()), "samples/s"},
			"latency_p50_us":           {median(p50s), "us"},
			"server_cpu_us_per_sample": {median(capst.cpuPerSample()), "us/sample"},
			"server_rss_mb":            {median(rss), "MB"},
		},
	}, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}
