package fleet

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/sim"
)

// FuzzBatchMatchesSerial drives a randomized mini-fleet — plant, stream
// count, trajectory length, and seed all fuzzer-chosen, shard size
// deliberately tiny so shard boundaries move — and asserts every
// stream's decision sequence is bit-identical to a standalone detector
// stepped over the same samples. Any float-semantics drift in the batch
// kernels (summation order, zero handling, gather/scatter) shows up as a
// decision mismatch.
func FuzzBatchMatchesSerial(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint8(20))
	f.Add(uint64(42), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(5), uint8(6), uint8(30))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(4), uint8(11))
	f.Fuzz(func(t *testing.T, seed uint64, modelSel, nstreams, nsteps uint8) {
		m := allModels[int(modelSel)%len(allModels)]
		streams := 1 + int(nstreams)%6
		steps := 1 + int(nsteps)%30

		eng := New(Config{Workers: 2, ShardSize: 3})
		type streamCase struct {
			id       string
			ests, us []mat.Vec
			got      []core.Decision
		}
		cases := make([]*streamCase, streams)
		for i := range cases {
			sc := &streamCase{id: fmt.Sprintf("f%d", i)}
			sc.ests, sc.us = synthTrajectory(m, StreamSeed(seed, sc.id), steps)
			if _, err := eng.AddStream(sc.id, newDetector(t, m, sim.Adaptive), func(d core.Decision, err error) {
				if err == nil {
					sc.got = append(sc.got, d)
				}
			}); err != nil {
				t.Fatalf("AddStream: %v", err)
			}
			cases[i] = sc
		}
		var wg sync.WaitGroup
		for _, sc := range cases {
			wg.Add(1)
			go func(sc *streamCase) {
				defer wg.Done()
				for s := 0; s < steps; s++ {
					if err := eng.Post(sc.id, sc.ests[s], sc.us[s]); err != nil {
						t.Errorf("Post(%s): %v", sc.id, err)
						return
					}
				}
			}(sc)
		}
		wg.Wait()
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for _, sc := range cases {
			if len(sc.got) != steps {
				t.Fatalf("stream %s: %d decisions, want %d", sc.id, len(sc.got), steps)
			}
			serial := newDetector(t, m, sim.Adaptive)
			for s := 0; s < steps; s++ {
				want, err := serial.Step(sc.ests[s], sc.us[s])
				if err != nil {
					t.Fatalf("serial step: %v", err)
				}
				if !decisionsEqual(sc.got[s], want) {
					t.Fatalf("stream %s step %d: fleet %+v != serial %+v", sc.id, s, sc.got[s], want)
				}
			}
		}
	})
}
