package wire

import (
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sim"
)

// TestWirePipelinedMatchesSerial is the pipelining differential: all six
// plants under all three attacks, samples streamed through the async
// in-flight window (deliberately smaller than one step's fan-out, so the
// window wraps constantly), with every decision delivered in submission
// order and bit-identical to a standalone detector.
func TestWirePipelinedMatchesSerial(t *testing.T) {
	const steps = 40
	_, addr := startServer(t, Config{Workers: 2})
	c := dial(t, addr)
	cases := openBatchCases(t, c, steps)

	type delivered struct {
		handle uint64
		d      core.Decision
		err    error
	}
	var got []delivered
	p, err := c.Pipeline(11, func(handle uint64, d core.Decision, err error) {
		got = append(got, delivered{handle, d, err})
	})
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	type sub struct{ caseIdx, step int }
	var subs []sub
	for step := 0; step < steps; step++ {
		for i, bc := range cases {
			if err := p.Ingest(bc.handle, bc.ests[step], bc.u); err != nil {
				t.Fatalf("pipelined Ingest(step %d case %d): %v", step, i, err)
			}
			subs = append(subs, sub{i, step})
		}
		if step == steps/2 {
			// A mid-stream Flush must drain the window without disturbing
			// ordering.
			if err := p.Flush(); err != nil {
				t.Fatalf("mid-stream Flush: %v", err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if len(got) != len(subs) {
		t.Fatalf("delivered %d decisions, submitted %d", len(got), len(subs))
	}
	for k, s := range subs {
		bc := cases[s.caseIdx]
		if got[k].handle != bc.handle {
			t.Fatalf("delivery %d: handle %d, want %d (ordering broken)", k, got[k].handle, bc.handle)
		}
		if got[k].err != nil {
			t.Fatalf("delivery %d: %v", k, got[k].err)
		}
		want, err := bc.det.Step(bc.ests[s.step], bc.u)
		if err != nil {
			t.Fatalf("serial step: %v", err)
		}
		if !wireDecisionsEqual(got[k].d, want) {
			t.Fatalf("case %d step %d: pipelined %+v != serial %+v", s.caseIdx, s.step, got[k].d, want)
		}
	}

	// The connection returns to synchronous use after Close.
	if _, err := c.Ingest(cases[0].handle, cases[0].ests[0], cases[0].u); err != nil {
		t.Fatalf("synchronous ingest after pipeline: %v", err)
	}
}

// TestWirePipelinedPerSampleErrors pins that a MsgError response (here an
// unknown handle) fails only its own sample: the pipeline keeps running
// and later samples decide normally.
func TestWirePipelinedPerSampleErrors(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	c := dial(t, addr)
	h, err := c.Open("acme", "s", "dc-motor", "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m := models.ByName("dc-motor")
	ests, u := wireTrajectory(m, 8, 4)
	serial, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
	if err != nil {
		t.Fatalf("Detector: %v", err)
	}

	var errs []error
	var decs []core.Decision
	p, err := c.Pipeline(4, func(_ uint64, d core.Decision, err error) {
		errs = append(errs, err)
		decs = append(decs, d)
	})
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	submit := []uint64{h, 999, h, h, 999, h}
	step := 0
	for _, sh := range submit {
		if sh == 999 {
			if err := p.Ingest(999, ests[0], u); err != nil {
				t.Fatalf("Ingest(bad): %v", err)
			}
			continue
		}
		if err := p.Ingest(h, ests[step], u); err != nil {
			t.Fatalf("Ingest(%d): %v", step, err)
		}
		step++
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(errs) != len(submit) {
		t.Fatalf("delivered %d, want %d", len(errs), len(submit))
	}
	step = 0
	for k, sh := range submit {
		if sh == 999 {
			if errs[k] == nil {
				t.Fatalf("delivery %d: unknown handle decided", k)
			}
			continue
		}
		if errs[k] != nil {
			t.Fatalf("delivery %d: %v", k, errs[k])
		}
		want, err := serial.Step(ests[step], u)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		if !wireDecisionsEqual(decs[k], want) {
			t.Fatalf("delivery %d: %+v != %+v", k, decs[k], want)
		}
		step++
	}
}
