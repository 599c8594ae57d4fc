package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/sim"
)

// wireAttacks builds the three evaluation attacks (Sec. 6.1.1) scaled to a
// model: bias by 3τ, a 5-step delay, and a replay of an early recording.
func wireAttacks(m *models.Model) []attack.Attack {
	sched := attack.Schedule{Start: 20}
	offset := m.Tau.Clone()
	for i := range offset {
		offset[i] *= 3
	}
	return []attack.Attack{
		attack.NewBias(sched, offset),
		attack.NewDelay(sched, 5),
		attack.NewReplay(sched, 2, 10),
	}
}

// attackedTrajectory corrupts a clean estimate stream through a stateful
// attack, replaying it from step 0 as the attack buffers require.
func attackedTrajectory(a attack.Attack, clean [][]float64) [][]float64 {
	a.Reset()
	out := make([][]float64, len(clean))
	for t, e := range clean {
		out[t] = a.Apply(t, mat.Vec(e).Clone())
	}
	return out
}

// batchCase is one stream in the batched differential: a plant under one
// attack, its wire handle, its attacked estimate stream, and the
// standalone detector producing the ground-truth decision sequence.
type batchCase struct {
	handle uint64
	ests   [][]float64
	u      []float64
	det    *core.System
}

// openBatchCases opens one stream per (plant × attack) pair — all six
// bundled plants under bias, delay, and replay — and returns each with its
// attacked trajectory and a twin standalone detector.
func openBatchCases(t *testing.T, c *Client, steps int) []*batchCase {
	t.Helper()
	var cases []*batchCase
	plants := append(models.All(), models.TestbedCar())
	for _, m := range plants {
		clean, u := wireTrajectory(m, 31, steps)
		for _, a := range wireAttacks(m) {
			h, err := c.Open("diff", m.Name+"-"+a.Name(), m.Name, "adaptive", 0)
			if err != nil {
				t.Fatalf("Open(%s/%s): %v", m.Name, a.Name(), err)
			}
			det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
			if err != nil {
				t.Fatalf("Detector(%s): %v", m.Name, err)
			}
			cases = append(cases, &batchCase{
				handle: h,
				ests:   attackedTrajectory(a, clean),
				u:      u,
				det:    det,
			})
		}
	}
	return cases
}

// TestWireBatchMatchesSerial is the tentpole differential: all six plants
// under all three attacks, every step's samples carried in one
// MsgIngestBatch frame, with each stream's decisions pinned bit-identical
// to a standalone detector stepped over the same attacked trajectory.
func TestWireBatchMatchesSerial(t *testing.T) {
	const steps = 50
	_, addr := startServer(t, Config{Workers: 2})
	c := dial(t, addr)
	cases := openBatchCases(t, c, steps)

	n := len(cases)
	handles := make([]uint64, n)
	ests := make([][]float64, n)
	inputs := make([][]float64, n)
	out := make([]IngestResult, n)
	for step := 0; step < steps; step++ {
		for i, bc := range cases {
			handles[i] = bc.handle
			ests[i] = bc.ests[step]
			inputs[i] = bc.u
		}
		if err := c.IngestBatch(handles, ests, inputs, out); err != nil {
			t.Fatalf("IngestBatch(step %d): %v", step, err)
		}
		for i, bc := range cases {
			if out[i].Err != nil {
				t.Fatalf("step %d case %d: %v", step, i, out[i].Err)
			}
			want, err := bc.det.Step(bc.ests[step], bc.u)
			if err != nil {
				t.Fatalf("step %d case %d serial: %v", step, i, err)
			}
			if !wireDecisionsEqual(out[i].Decision, want) {
				t.Fatalf("step %d case %d: batch %+v != serial %+v", step, i, out[i].Decision, want)
			}
		}
	}
}

// TestWireBatchDuplicateHandles pins wire-level ordering for a batch
// carrying several samples of the same stream: decisions come back in
// item order, matching the serial frame-per-sample path exactly.
func TestWireBatchDuplicateHandles(t *testing.T) {
	const steps = 9
	_, addr := startServer(t, Config{Workers: 2})
	c := dial(t, addr)
	h, err := c.Open("acme", "dup", "aircraft-pitch", "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m := models.ByName("aircraft-pitch")
	ests, u := wireTrajectory(m, 13, steps)
	serial, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
	if err != nil {
		t.Fatalf("Detector: %v", err)
	}

	handles := make([]uint64, steps)
	inputs := make([][]float64, steps)
	for i := range handles {
		handles[i] = h
		inputs[i] = u
	}
	out := make([]IngestResult, steps)
	if err := c.IngestBatch(handles, ests, inputs, out); err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	for i := 0; i < steps; i++ {
		if out[i].Err != nil {
			t.Fatalf("sample %d: %v", i, out[i].Err)
		}
		want, err := serial.Step(ests[i], u)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		if !wireDecisionsEqual(out[i].Decision, want) {
			t.Fatalf("sample %d: %+v != %+v", i, out[i].Decision, want)
		}
	}
}

// TestWireBatchPerItemErrors pins the batch failure contract on the wire:
// an unknown handle fails its own item, the rest of the batch decides, and
// the connection stays healthy.
func TestWireBatchPerItemErrors(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	c := dial(t, addr)
	h, err := c.Open("acme", "s", "series-rlc", "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m := models.ByName("series-rlc")
	ests, u := wireTrajectory(m, 3, 2)

	handles := []uint64{h, 999, h}
	batchEsts := [][]float64{ests[0], ests[0], ests[1]}
	inputs := [][]float64{u, u, u}
	out := make([]IngestResult, 3)
	if err := c.IngestBatch(handles, batchEsts, inputs, out); err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy items failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[0].Decision.Step != 0 || out[2].Decision.Step != 1 {
		t.Fatalf("healthy steps = %d, %d; want 0, 1", out[0].Decision.Step, out[2].Decision.Step)
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "unknown stream") {
		t.Fatalf("unknown handle error = %v", out[1].Err)
	}
	// Mismatched slice lengths are a client-side error before any frame.
	if err := c.IngestBatch(handles, batchEsts[:2], inputs, out); err == nil {
		t.Fatalf("length mismatch accepted")
	}
	// The connection still serves.
	if _, err := c.Ingest(h, ests[0], u); err != nil {
		t.Fatalf("ingest after batch errors: %v", err)
	}
}

// TestHTTPBatchMatchesBinary is the scripting-path differential: the same
// samples through POST /v1/ingest-batch and through the binary batch frame
// against twin streams must yield identical decision sequences.
func TestHTTPBatchMatchesBinary(t *testing.T) {
	const steps = 20
	srv, addr := startServer(t, Config{Workers: 2})
	httpAddr, err := srv.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	c := dial(t, addr)
	m := models.ByName("quadrotor")
	ests, u := wireTrajectory(m, 9, steps)

	bh, err := c.Open("acme", "bin", "quadrotor", "adaptive", 0)
	if err != nil {
		t.Fatalf("Open(bin): %v", err)
	}
	var opened struct {
		Handle uint64 `json:"handle"`
	}
	postJSON(t, httpAddr, "/v1/open",
		openRequest{Tenant: "acme", Stream: "http", Model: "quadrotor", Strategy: "adaptive"}, &opened)

	const per = 5 // samples per batch: 4 batches of 5 steps
	for start := 0; start < steps; start += per {
		handles := make([]uint64, per)
		batchEsts := make([][]float64, per)
		inputs := make([][]float64, per)
		items := make([]ingestRequest, per)
		for i := 0; i < per; i++ {
			handles[i] = bh
			batchEsts[i] = ests[start+i]
			inputs[i] = u
			items[i] = ingestRequest{Handle: opened.Handle, Estimate: ests[start+i], Input: u}
		}
		out := make([]IngestResult, per)
		if err := c.IngestBatch(handles, batchEsts, inputs, out); err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
		var resp struct {
			Items []ingestBatchItemJSON `json:"items"`
		}
		postJSON(t, httpAddr, "/v1/ingest-batch", ingestBatchRequest{Items: items}, &resp)
		if len(resp.Items) != per {
			t.Fatalf("HTTP batch returned %d items, want %d", len(resp.Items), per)
		}
		for i := 0; i < per; i++ {
			if out[i].Err != nil {
				t.Fatalf("binary item %d: %v", i, out[i].Err)
			}
			hj := resp.Items[i]
			if hj.Error != "" || hj.Decision == nil {
				t.Fatalf("HTTP item %d: decision=%v error=%q", i, hj.Decision, hj.Error)
			}
			bj := toDecisionJSON(out[i].Decision)
			if hj.Decision.Step != bj.Step || hj.Decision.Window != bj.Window ||
				hj.Decision.Deadline != bj.Deadline || hj.Decision.Alarm != bj.Alarm ||
				hj.Decision.Complementary != bj.Complementary ||
				hj.Decision.ComplementaryStep != bj.ComplementaryStep ||
				!slices.Equal(hj.Decision.Dims, bj.Dims) {
				t.Fatalf("step %d: HTTP %+v != binary %+v", start+i, *hj.Decision, bj)
			}
		}
	}
	// Per-item errors surface as JSON error strings, not whole-batch 4xx.
	var resp struct {
		Items []ingestBatchItemJSON `json:"items"`
	}
	postJSON(t, httpAddr, "/v1/ingest-batch",
		ingestBatchRequest{Items: []ingestRequest{{Handle: 999, Estimate: ests[0], Input: u}}}, &resp)
	if len(resp.Items) != 1 || resp.Items[0].Error == "" {
		t.Fatalf("unknown-handle HTTP batch item = %+v", resp.Items)
	}
}

// postJSON posts body to the HTTP fallback and decodes the 200 response.
func postJSON(t *testing.T, addr, path string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: %s (%s)", path, resp.Status, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
}
