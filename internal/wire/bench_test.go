package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/state"
)

// benchSample is one silent steady-state sample (estimate inside the
// model's ε-ball), the case a monitoring fleet ingests almost always.
func benchSample(m *models.Model) (est, u []float64) {
	gen := noise.NewBall(1, m.Sys.StateDim(), m.Eps)
	return gen.Sample(0), make([]float64, m.Sys.InputDim())
}

// BenchmarkServeIngestHTTP measures one sample round trip over the JSON
// fallback, a one-item POST /v1/ingest-batch — the "before" column of
// BENCH_serve.json. The gap to the binary batch=1 row is the price of
// accessibility.
func BenchmarkServeIngestHTTP(b *testing.B) {
	srv := NewServer(Config{Workers: 2})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	httpAddr, err := srv.StartHTTP("127.0.0.1:0")
	if err != nil {
		b.Fatalf("StartHTTP: %v", err)
	}
	h, err := srv.Open("bench", "s", "aircraft-pitch", "adaptive", 0)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	est, u := benchSample(models.ByName("aircraft-pitch"))
	url := "http://" + httpAddr + "/v1/ingest-batch"
	client := &http.Client{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(ingestBatchRequest{Items: []ingestRequest{{Handle: h, Estimate: est, Input: u}}})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatalf("POST: %v", err)
		}
		var out struct {
			Items []ingestBatchItemJSON `json:"items"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(out.Items) != 1 || out.Items[0].Decision == nil {
			b.Fatalf("status %s, items %+v", resp.Status, out.Items)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// benchBatchServer starts a server with n open aircraft-pitch streams and
// a connected client, returning the per-stream handles and one silent
// sample per stream.
func benchBatchServer(b *testing.B, n int) (*Client, []uint64, [][]float64, [][]float64) {
	b.Helper()
	srv := NewServer(Config{Workers: 2})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	b.Cleanup(func() { c.Close() })
	est, u := benchSample(models.ByName("aircraft-pitch"))
	handles := make([]uint64, n)
	ests := make([][]float64, n)
	inputs := make([][]float64, n)
	for i := 0; i < n; i++ {
		if handles[i], err = c.Open("bench", fmt.Sprintf("s-%04d", i), "aircraft-pitch", "adaptive", 0); err != nil {
			b.Fatalf("Open(%d): %v", i, err)
		}
		ests[i] = est
		inputs[i] = u
	}
	return c, handles, ests, inputs
}

// BenchmarkServeIngestWireBatch measures batched wire ingest: one
// MsgIngestBatch frame per op carrying one silent sample for each of
// batch streams. ns/op is per batch; the samples/sec metric is the
// per-sample throughput `make bench-serve` gates against the batch=1 row
// (the framing-amortization win is the whole point of the batch frames).
// batch=1 is also the synchronous single-sample round trip, since
// Client.Ingest sends a batch of one.
func BenchmarkServeIngestWireBatch(b *testing.B) {
	for _, n := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			c, handles, ests, inputs := benchBatchServer(b, n)
			out := make([]IngestResult, n)
			if err := c.IngestBatch(handles, ests, inputs, out); err != nil { // warm-up
				b.Fatalf("IngestBatch: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.IngestBatch(handles, ests, inputs, out); err != nil {
					b.Fatalf("IngestBatch: %v", err)
				}
				if out[0].Err != nil {
					b.Fatalf("batch item: %v", out[0].Err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkServeIngestPipelined measures the async single-sample path: one
// sample per one-item batch frame, but with an in-flight window instead of a
// blocking round trip per sample, round-robin over 8 streams. Together
// with the batch rows this separates the two amortizations: pipelining
// removes the round-trip stalls, batching additionally removes per-frame
// overhead.
func BenchmarkServeIngestPipelined(b *testing.B) {
	for _, w := range []int{16, 256} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			const streams = 8
			c, handles, ests, inputs := benchBatchServer(b, streams)
			delivered := 0
			p, err := c.Pipeline(w, func(_ uint64, _ core.Decision, err error) {
				if err != nil {
					b.Errorf("delivery: %v", err)
				}
				delivered++
			})
			if err != nil {
				b.Fatalf("Pipeline: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % streams
				if err := p.Ingest(handles[k], ests[k], inputs[k]); err != nil {
					b.Fatalf("Ingest: %v", err)
				}
			}
			if err := p.Flush(); err != nil {
				b.Fatalf("Flush: %v", err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
			if err := p.Close(); err != nil {
				b.Fatalf("Close: %v", err)
			}
			if delivered != b.N {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
		})
	}
}

// BenchmarkServeIngestWireConns measures synchronous single-sample ingest
// (Client.Ingest, a batch of one) across parallel connections, each with
// its own stream — the multi-tenant shape where per-connection round
// trips overlap.
func BenchmarkServeIngestWireConns(b *testing.B) {
	for _, nc := range []int{1, 4} {
		b.Run(fmt.Sprintf("conns=%d", nc), func(b *testing.B) {
			srv := NewServer(Config{Workers: 2})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				b.Fatalf("Start: %v", err)
			}
			defer srv.Close()
			est, u := benchSample(models.ByName("aircraft-pitch"))
			clients := make([]*Client, nc)
			handles := make([]uint64, nc)
			for k := 0; k < nc; k++ {
				if clients[k], err = Dial(addr); err != nil {
					b.Fatalf("Dial: %v", err)
				}
				defer clients[k].Close()
				if handles[k], err = clients[k].Open("bench", fmt.Sprintf("c-%d", k), "aircraft-pitch", "adaptive", 0); err != nil {
					b.Fatalf("Open: %v", err)
				}
				if _, err := clients[k].Ingest(handles[k], est, u); err != nil {
					b.Fatalf("warm-up Ingest: %v", err)
				}
			}
			per := b.N / nc
			if per == 0 {
				per = 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errCh := make(chan error, nc)
			for k := 0; k < nc; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := clients[k].Ingest(handles[k], est, u); err != nil {
							errCh <- err
							return
						}
					}
				}(k)
			}
			wg.Wait()
			select {
			case err := <-errCh:
				b.Fatalf("Ingest: %v", err)
			default:
			}
			b.ReportMetric(float64(nc*per)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkServeOpen measures stream set-up: one Client.Open round trip on
// loopback per op, each for a fresh stream id, on a server where the plant
// already has a stream (its reachability tables are built). This is the
// per-stream cost a server pays when a fleet connects, on the 12-state
// quadrotor and the 1-state vehicle-turning plant.
func BenchmarkServeOpen(b *testing.B) {
	for _, model := range []string{"quadrotor", "vehicle-turning"} {
		b.Run("model="+model, func(b *testing.B) {
			c, _, _, _ := benchBatchServer(b, 0)
			if _, err := c.Open("bench", "warm", model, "adaptive", 0); err != nil {
				b.Fatalf("Open(warm): %v", err)
			}
			ids := make([]string, b.N)
			for i := range ids {
				ids[i] = fmt.Sprintf("s-%07d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Open("bench", ids[i], model, "adaptive", 0); err != nil {
					b.Fatalf("Open(%s): %v", ids[i], err)
				}
			}
		})
	}
}

// BenchmarkServeCheckpoint measures Server.Checkpoint whole: quiesce,
// encode the spec section and every stream's state straight into the
// file, fsync and rename, over warmed adaptive aircraft-pitch streams in
// a temp dir. BenchmarkFleetSnapshot reuses one encoder across
// iterations; this row pays what each real checkpoint allocates, so its
// B/op is the checkpoint's memory cost.
func BenchmarkServeCheckpoint(b *testing.B) {
	for _, n := range []int{512} {
		b.Run(fmt.Sprintf("streams=%d", n), func(b *testing.B) {
			srv := NewServer(Config{CheckpointDir: b.TempDir(), Workers: 2})
			defer srv.Close()
			est, u := benchSample(models.ByName("aircraft-pitch"))
			handles := make([]uint64, n)
			items := make([]fleet.BatchItem, n)
			for i := range handles {
				h, err := srv.Open("bench", fmt.Sprintf("s-%04d", i), "aircraft-pitch", "adaptive", 0)
				if err != nil {
					b.Fatalf("Open(%d): %v", i, err)
				}
				handles[i] = h
				items[i] = fleet.BatchItem{Estimate: est, AppliedU: u}
			}
			out := make([]fleet.BatchResult, n)
			bt := srv.Engine().NewBatcher()
			for step := 0; step < 3; step++ {
				if err := srv.IngestBatch(bt, handles, items, out); err != nil {
					b.Fatalf("IngestBatch: %v", err)
				}
			}
			_, size, err := srv.Checkpoint("bench.awds")
			if err != nil {
				b.Fatalf("Checkpoint: %v", err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := srv.Checkpoint("bench.awds"); err != nil {
					b.Fatalf("Checkpoint: %v", err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "streams/sec")
		})
	}
}

// benchFleet builds a warmed fleet of n adaptive aircraft-pitch streams.
func benchFleet(b *testing.B, n int) (*fleet.Engine, func(id string) (*core.System, func(core.Decision, error), error)) {
	b.Helper()
	m := models.ByName("aircraft-pitch")
	mk := func(id string) (*core.System, func(core.Decision, error), error) {
		det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
		return det, nil, err
	}
	eng := fleet.New(fleet.Config{Workers: 2})
	est, u := benchSample(m)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s-%04d", i)
		det, _, err := mk(id)
		if err != nil {
			b.Fatalf("Detector: %v", err)
		}
		if _, err := eng.AddStream(id, det, nil); err != nil {
			b.Fatalf("AddStream: %v", err)
		}
	}
	for step := 0; step < 3; step++ {
		for i := 0; i < n; i++ {
			if _, err := eng.Submit(fmt.Sprintf("s-%04d", i), est, u); err != nil {
				b.Fatalf("Submit: %v", err)
			}
		}
	}
	return eng, mk
}

// BenchmarkFleetSnapshot measures checkpoint latency: quiescing the fleet
// and encoding every stream's complete runtime state (file I/O excluded —
// that cost belongs to the disk, not the codec).
func BenchmarkFleetSnapshot(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("streams=%d", n), func(b *testing.B) {
			eng, _ := benchFleet(b, n)
			defer eng.Close()
			enc := state.NewEncoder()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Reset()
				enc.Header()
				if err := eng.Snapshot(enc); err != nil {
					b.Fatalf("Snapshot: %v", err)
				}
			}
			b.StopTimer()
			b.SetBytes(int64(enc.Len()))
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "streams/sec")
		})
	}
}

// BenchmarkFleetRestore measures recovery latency: rebuilding detectors
// and restoring every stream's state from a snapshot into a fresh engine.
func BenchmarkFleetRestore(b *testing.B) { benchRestore(b, false) }

// BenchmarkFleetRestoreFirstWave measures recovery up to the first
// decisions: the restore BenchmarkFleetRestore times, a handle lookup per
// stream, and one Batcher.Submit wave that steps every restored stream
// once. Restored shard certificates start cold, so the wave pays each
// certificate's first full scan.
func BenchmarkFleetRestoreFirstWave(b *testing.B) { benchRestore(b, true) }

func benchRestore(b *testing.B, wave bool) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("streams=%d", n), func(b *testing.B) {
			eng, mk := benchFleet(b, n)
			enc := state.NewEncoder()
			enc.Header()
			if err := eng.Snapshot(enc); err != nil {
				b.Fatalf("Snapshot: %v", err)
			}
			eng.Close()
			blob := enc.Bytes()
			est, u := benchSample(models.ByName("aircraft-pitch"))
			ids := make([]string, n)
			for k := range ids {
				ids[k] = fmt.Sprintf("s-%04d", k)
			}
			items := make([]fleet.BatchItem, n)
			out := make([]fleet.BatchResult, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := fleet.New(fleet.Config{Workers: 2})
				dec := state.NewDecoder(blob)
				if err := dec.Header(); err != nil {
					b.Fatalf("header: %v", err)
				}
				if err := fresh.Restore(dec, mk); err != nil {
					b.Fatalf("Restore: %v", err)
				}
				if wave {
					for k, id := range ids {
						s, _ := fresh.Stream(id)
						items[k] = fleet.BatchItem{Stream: s, Estimate: est, AppliedU: u}
					}
					if err := fresh.NewBatcher().Submit(items, out); err != nil {
						b.Fatalf("Submit: %v", err)
					}
				}
				b.StopTimer()
				for _, r := range out {
					if r.Err != nil {
						b.Fatalf("first wave: %v", r.Err)
					}
				}
				fresh.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "streams/sec")
		})
	}
}
