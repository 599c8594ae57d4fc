package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/noise"
	"repro/internal/sim"
)

// gatewaySize is how many streams of one plant share an IngestBatch frame on
// the batched workloads: a field gateway forwards its sensors' samples
// together, once per control period.
const gatewaySize = 256

// warmSamples is how many samples each stream ingests during set-up: one
// more than the maximum detection window w_m of every plant used here, so
// the logger and the window rule are past their ramp before timing starts.
const warmSamples = 41

type inputKind int

const (
	// hoverNoise: the quadrotor holding its cruise altitude, each stream's
	// estimate jittered by its own seeded sensor noise, zero input.
	hoverNoise inputKind = iota
	// closedLoop: each stream replays its own sim.Run closed-loop trace;
	// one stream in 16 is under each of the bias, delay and replay attacks.
	closedLoop
)

// group is one plant's share of a workload.
type group struct {
	model   string
	streams int
}

// workload is one named traffic mix.
type workload struct {
	name      string
	kind      inputKind
	groups    []group
	perSample bool // one MsgIngest frame per sample through Client.Pipeline
	// capRate sizes the capacity phase's inputs: the samples per second the
	// phase is generated for. The phase sends exactly that much work.
	capRate float64
	// sessions is how many awdserve processes an end-to-end run measures
	// (see endToEnd).
	sessions int
}

var workloads = []workload{
	{
		name:     "hover-fleet",
		kind:     hoverNoise,
		groups:   []group{{"quadrotor", 10000}},
		capRate:  320e3,
		sessions: 2,
	},
	{
		name:    "closed-loop-mix",
		kind:    closedLoop,
		groups:  []group{{"aircraft-pitch", 1000}, {"vehicle-turning", 1000}, {"dc-motor", 1000}},
		capRate: 320e3,
		// The auto-tuned shard size, drawn per awdserve process, changes
		// how 1000-stream plants are sharded; more sessions average it.
		sessions: 6,
	},
	{
		name:      "per-sample",
		kind:      closedLoop,
		groups:    []group{{"vehicle-turning", 256}},
		perSample: true,
		capRate:   200e3,
		sessions:  3,
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// plant is one model as a workload drives it. A sample is the estimate
// followed by the applied input; only the dimensions in vary change from
// sample to sample, the rest keep their value in base. Storing just those
// keeps a 10k-stream quadrotor fleet's inputs small.
type plant struct {
	model  *models.Model
	n, m   int
	period time.Duration
	base   []float64
	vary   []int
}

func newPlant(name string, kind inputKind) (*plant, error) {
	m := models.ByName(name)
	if m == nil {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	n, k := m.Sys.StateDim(), m.Sys.InputDim()
	p := &plant{
		model:  m,
		n:      n,
		m:      k,
		period: time.Duration(math.Round(m.Sys.Dt * float64(time.Second))),
		base:   make([]float64, n+k),
	}
	switch kind {
	case hoverNoise:
		p.base[2] = m.Ref.At(0) // altitude before the climb command
		for i, a := range m.SensorNoise {
			if a > 0 {
				p.vary = append(p.vary, i)
			}
		}
	case closedLoop:
		for i := range p.base {
			p.vary = append(p.vary, i)
		}
	}
	return p, nil
}

// stream is one detector stream: its inputs, its reference decisions, and
// where the generator is in its sample sequence.
type stream struct {
	id     string
	idx    int // position in the workload's stream list
	p      *plant
	vals   []float64 // per sample, the plant's vary dimensions in order
	ref    refTrace
	handle uint64
	next   int // next sample to send
}

func (s *stream) samples() int { return len(s.vals) / len(s.p.vary) }

// fill materializes sample k into est and u.
func (s *stream) fill(k int, est, u []float64) {
	p := s.p
	copy(est, p.base[:p.n])
	copy(u, p.base[p.n:])
	v := s.vals[k*len(p.vary) : (k+1)*len(p.vary)]
	for j, d := range p.vary {
		if d < p.n {
			est[d] = v[j]
		} else {
			u[d-p.n] = v[j]
		}
	}
}

// gateway is a set of streams of one plant that send together: one batch
// frame per control period, at a fixed phase offset. On the per-sample
// workload every gateway holds one stream.
type gateway struct {
	p       *plant
	streams []*stream
	phase   time.Duration

	// Frame scratch, reused for every frame this gateway sends.
	handles []uint64
	ests    [][]float64
	us      [][]float64
	out     []wireResult
}

// event is one scheduled send within a hyperperiod.
type event struct {
	at time.Duration
	gw *gateway
}

// traffic is a workload instantiated for one seed: every stream's inputs
// and reference decisions, its gateways, and the open-loop send schedule.
type traffic struct {
	w        workload
	streams  []*stream
	gateways []*gateway
	events   []event       // one hyperperiod, sorted by time
	hyper    time.Duration // schedule period
	latency  time.Duration // latency-phase length per session
	capacity time.Duration // capacity-phase length per session at capRate
	rounds   int           // capacity-phase samples per stream
}

// latencySamples is how many samples a gateway sends in a latency phase of
// length l: one per period starting at its phase.
func latencySamples(l, phase, period time.Duration) int {
	if l <= phase {
		return 0
	}
	return int((l - phase + period - 1) / period)
}

// build generates the workload's inputs from seed and computes every
// stream's reference decisions, for one session: warm-up, phases latency
// phases of length l, and a capacity phase of length c at the workload's
// capRate. Every session replays the same samples. scale multiplies every
// group's stream count.
func build(w workload, seed uint64, scale float64, l time.Duration, phases int, c time.Duration) (*traffic, error) {
	tr := &traffic{w: w, latency: l, capacity: c}
	total := 0
	counts := make([]int, len(w.groups))
	for i, g := range w.groups {
		counts[i] = int(math.Max(1, math.Round(float64(g.streams)*scale)))
		total += counts[i]
	}
	tr.rounds = int(math.Max(capacitySlices, math.Ceil(w.capRate*c.Seconds()/float64(total))))

	var periods []time.Duration
	for gi, g := range w.groups {
		p, err := newPlant(g.model, w.kind)
		if err != nil {
			return nil, err
		}
		periods = append(periods, p.period)
		per := gatewaySize
		if w.perSample {
			per = 1
		}
		ngw := (counts[gi] + per - 1) / per
		for j := 0; j < ngw; j++ {
			gw := &gateway{p: p}
			// Spread gateways evenly over the period, and the groups'
			// gateways between each other.
			gw.phase = time.Duration((float64(j) + float64(gi)/float64(len(w.groups))) / float64(ngw) * float64(p.period))
			tr.gateways = append(tr.gateways, gw)
			for k := j * per; k < (j+1)*per && k < counts[gi]; k++ {
				s := &stream{
					id:  fmt.Sprintf("%s-%05d", g.model, k),
					idx: len(tr.streams),
					p:   p,
				}
				gw.streams = append(gw.streams, s)
				tr.streams = append(tr.streams, s)
			}
			n := len(gw.streams)
			gw.handles = make([]uint64, n)
			gw.ests = make([][]float64, n)
			gw.us = make([][]float64, n)
			gw.out = make([]wireResult, n)
			for k := range gw.ests {
				gw.ests[k] = make([]float64, p.n)
				gw.us[k] = make([]float64, p.m)
			}
		}
	}
	tr.hyper = periods[0]
	for _, p := range periods[1:] {
		tr.hyper = lcm(tr.hyper, p)
	}
	for _, gw := range tr.gateways {
		for at := gw.phase; at < tr.hyper; at += gw.p.period {
			tr.events = append(tr.events, event{at: at, gw: gw})
		}
	}
	sort.SliceStable(tr.events, func(i, j int) bool { return tr.events[i].at < tr.events[j].at })

	// Generate and reference every stream in parallel; each stream's work
	// depends only on its own seed.
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	gwOf := make(map[*stream]*gateway, len(tr.streams))
	for _, gw := range tr.gateways {
		for _, s := range gw.streams {
			gwOf[s] = gw
		}
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(tr.streams); i += workers {
				s := tr.streams[i]
				gw := gwOf[s]
				t := warmSamples + phases*latencySamples(l, gw.phase, gw.p.period) + tr.rounds
				if err := generate(s, w.kind, fleet.StreamSeed(seed, s.id), t); err != nil {
					errs[wk] = err
					return
				}
				if err := s.ref.compute(s); err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// generate fills s.vals with t samples drawn from seed.
func generate(s *stream, kind inputKind, seed uint64, t int) error {
	p := s.p
	s.vals = make([]float64, 0, t*len(p.vary))
	switch kind {
	case hoverNoise:
		g := noise.NewUniformBox(seed, p.model.SensorNoise)
		for k := 0; k < t; k++ {
			v := g.Sample(k)
			for _, d := range p.vary {
				s.vals = append(s.vals, p.base[d]+v[d])
			}
		}
	case closedLoop:
		var att attack.Attack
		if name := attackOf(s.idx); name != "" {
			a, err := sim.BuildAttack(p.model, name)
			if err != nil {
				return err
			}
			att = a
		}
		run, err := sim.Run(sim.Config{Model: p.model, Attack: att, Steps: t, Seed: seed})
		if err != nil {
			return fmt.Errorf("trace for %s: %w", s.id, err)
		}
		zero := make([]float64, p.m)
		for k, rec := range run.Records {
			s.vals = append(s.vals, rec.Estimate...)
			// A sample carries the input applied over the preceding period.
			if k == 0 {
				s.vals = append(s.vals, zero...)
			} else {
				s.vals = append(s.vals, run.Records[k-1].Input...)
			}
		}
	}
	return nil
}

// attackOf names the attack stream i is under on closed-loop workloads:
// one stream in 16 each for the paper's bias, delay and replay scenarios.
func attackOf(i int) string {
	switch i % 16 {
	case 1:
		return "bias"
	case 2:
		return "delay"
	case 3:
		return "replay"
	}
	return ""
}

func lcm(a, b time.Duration) time.Duration {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}
