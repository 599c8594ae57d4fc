package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/state"
)

func wireDecisionsEqual(a, b core.Decision) bool {
	return a.Step == b.Step && a.Window == b.Window && a.Deadline == b.Deadline &&
		a.Alarm == b.Alarm && a.Complementary == b.Complementary &&
		a.ComplementaryStep == b.ComplementaryStep && slices.Equal(a.Dims, b.Dims)
}

// wireTrajectory is a deterministic noisy estimate stream inside the
// model's ε-ball with periodic τ-scaled spikes, regenerable from step 0 —
// the replay discipline crash-recovery clients must follow, since the
// generators are stateful.
func wireTrajectory(m *models.Model, seed uint64, steps int) (ests [][]float64, u []float64) {
	gen := noise.NewBall(seed, m.Sys.StateDim(), m.Eps)
	ests = make([][]float64, steps)
	for t := 0; t < steps; t++ {
		e := mat.Vec(gen.Sample(t)).Clone()
		if t%11 == 9 {
			for i := range e {
				e[i] += m.Tau[i] * 2.5
			}
		}
		ests[t] = e
	}
	return ests, make([]float64, m.Sys.InputDim())
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := NewServer(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv, addr
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial(%s): %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWireIngestMatchesSerial pins the binary protocol end to end: samples
// ingested over TCP come back with decisions bit-identical to a standalone
// detector, for streams across tenants, models, and strategies.
func TestWireIngestMatchesSerial(t *testing.T) {
	const steps = 60
	_, addr := startServer(t, Config{Workers: 2})
	c := dial(t, addr)

	cases := []struct {
		tenant, stream, model, strategy string
	}{
		{"acme", "pitch-0", "aircraft-pitch", "adaptive"},
		{"acme", "pitch-1", "aircraft-pitch", "fixed"},
		{"globex", "turn-0", "vehicle-turning", "adaptive"},
		{"globex", "rlc-0", "series-rlc", "cusum"},
	}
	for _, tc := range cases {
		h, err := c.Open(tc.tenant, tc.stream, tc.model, tc.strategy, 0)
		if err != nil {
			t.Fatalf("Open(%s/%s): %v", tc.tenant, tc.stream, err)
		}
		m := models.ByName(tc.model)
		strat, err := parseStrategy(tc.strategy)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := sim.Detector(sim.Config{Model: m, Strategy: strat})
		if err != nil {
			t.Fatalf("Detector: %v", err)
		}
		ests, u := wireTrajectory(m, 7, steps)
		for i := 0; i < steps; i++ {
			got, err := c.Ingest(h, ests[i], u)
			if err != nil {
				t.Fatalf("Ingest(%s/%s, %d): %v", tc.tenant, tc.stream, i, err)
			}
			want, err := serial.Step(ests[i], u)
			if err != nil {
				t.Fatalf("serial step %d: %v", i, err)
			}
			if !wireDecisionsEqual(got, want) {
				t.Fatalf("%s/%s step %d: wire decision %+v != serial %+v", tc.tenant, tc.stream, i, got, want)
			}
		}
	}
}

// TestTenantQuota pins the per-tenant stream cap: opens beyond the quota
// fail, re-opens of existing streams don't consume quota, and other
// tenants are unaffected.
func TestTenantQuota(t *testing.T) {
	_, addr := startServer(t, Config{MaxStreamsPerTenant: 2})
	c := dial(t, addr)

	for i := 0; i < 2; i++ {
		if _, err := c.Open("acme", fmt.Sprintf("s-%d", i), "aircraft-pitch", "adaptive", 0); err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
	}
	if _, err := c.Open("acme", "s-2", "aircraft-pitch", "adaptive", 0); err == nil {
		t.Fatalf("third stream for tenant at quota 2 succeeded")
	} else if !strings.Contains(err.Error(), "quota") {
		t.Fatalf("quota violation error = %q, want mention of quota", err)
	}
	// Identical re-open is idempotent, not a quota consumer.
	if _, err := c.Open("acme", "s-0", "aircraft-pitch", "adaptive", 0); err != nil {
		t.Fatalf("idempotent re-open: %v", err)
	}
	// A conflicting spec for a live stream is rejected.
	if _, err := c.Open("acme", "s-0", "aircraft-pitch", "cusum", 0); err == nil {
		t.Fatalf("conflicting re-open succeeded")
	}
	// Other tenants have their own budget.
	if _, err := c.Open("globex", "s-0", "aircraft-pitch", "adaptive", 0); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
}

// TestCheckpointRestoreLifecycle runs the full lifecycle in-process:
// ingest, checkpoint mid-run, keep going on the original server, then
// bring up a second server from the checkpoint, re-open, and verify its
// continued decision stream matches the original's bit for bit.
func TestCheckpointRestoreLifecycle(t *testing.T) {
	const steps, k = 80, 37
	dir := t.TempDir()
	m := models.ByName("vehicle-turning")
	ests, u := wireTrajectory(m, 21, steps)

	_, addr := startServer(t, Config{CheckpointDir: dir, Workers: 2})
	c := dial(t, addr)
	h, err := c.Open("acme", "turn", "vehicle-turning", "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := make([]core.Decision, steps)
	for i := 0; i < k; i++ {
		if want[i], err = c.Ingest(h, ests[i], u); err != nil {
			t.Fatalf("Ingest(%d): %v", i, err)
		}
	}
	detail, err := c.Checkpoint("mid.awds")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !strings.Contains(detail, "mid.awds") {
		t.Fatalf("checkpoint detail %q does not name the file", detail)
	}
	for i := k; i < steps; i++ {
		if want[i], err = c.Ingest(h, ests[i], u); err != nil {
			t.Fatalf("Ingest(%d): %v", i, err)
		}
	}

	// Second server restores the checkpoint; the client re-opens
	// idempotently and replays the suffix.
	_, addr2 := startServer(t, Config{CheckpointDir: dir, Workers: 2})
	c2 := dial(t, addr2)
	if _, err := c2.Restore("mid.awds"); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	h2, err := c2.Open("acme", "turn", "vehicle-turning", "adaptive", 0)
	if err != nil {
		t.Fatalf("re-Open after restore: %v", err)
	}
	for i := k; i < steps; i++ {
		got, err := c2.Ingest(h2, ests[i], u)
		if err != nil {
			t.Fatalf("restored Ingest(%d): %v", i, err)
		}
		if !wireDecisionsEqual(got, want[i]) {
			t.Fatalf("step %d: restored decision %+v != original %+v", i, got, want[i])
		}
	}
}

// TestDrain pins drain semantics: after Drain, ingest and open are
// refused, checkpoint still works, and stats reports the drained state.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, Config{CheckpointDir: dir})
	c := dial(t, addr)
	h, err := c.Open("acme", "s", "dc-motor", "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m := models.ByName("dc-motor")
	ests, u := wireTrajectory(m, 2, 5)
	for i := range ests {
		if _, err := c.Ingest(h, ests[i], u); err != nil {
			t.Fatalf("Ingest(%d): %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := c.Ingest(h, ests[0], u); err == nil {
		t.Fatalf("ingest after drain succeeded")
	}
	if _, err := c.Open("acme", "s2", "dc-motor", "adaptive", 0); err == nil {
		t.Fatalf("open after drain succeeded")
	}
	if _, err := c.Checkpoint(""); err != nil {
		t.Fatalf("checkpoint after drain: %v", err)
	}
	if st := srv.Stats(); !st.Draining || st.Streams != 1 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestHTTPFallback drives the same lifecycle over the JSON API, one
// sample per /v1/ingest-batch post alternating with binary Client.Ingest
// on the same stream, and checks every decision against a serial twin.
func TestHTTPFallback(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1})
	httpAddr, err := srv.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	base := "http://" + httpAddr

	post := func(path string, body, out any) error {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("%s: %s (%s)", path, resp.Status, e.Error)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	var opened struct {
		Handle uint64 `json:"handle"`
	}
	if err := post("/v1/open", openRequest{Tenant: "acme", Stream: "h", Model: "series-rlc", Strategy: "adaptive"}, &opened); err != nil {
		t.Fatalf("open: %v", err)
	}
	m := models.ByName("series-rlc")
	ests, u := wireTrajectory(m, 4, 12)

	// Same stream reached over the binary protocol for the cross-check.
	c := dial(t, addr)
	bh, err := c.Open("acme", "h", "series-rlc", "adaptive", 0)
	if err != nil {
		t.Fatalf("binary re-open: %v", err)
	}
	serial, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
	if err != nil {
		t.Fatalf("Detector: %v", err)
	}
	for i := range ests {
		var got decisionJSON
		if i%2 == 0 {
			var resp struct {
				Items []ingestBatchItemJSON `json:"items"`
			}
			one := ingestBatchRequest{Items: []ingestRequest{{Handle: opened.Handle, Estimate: ests[i], Input: u}}}
			if err := post("/v1/ingest-batch", one, &resp); err != nil {
				t.Fatalf("ingest %d: %v", i, err)
			}
			if len(resp.Items) != 1 || resp.Items[0].Decision == nil {
				t.Fatalf("ingest %d: one-item batch answered %+v", i, resp.Items)
			}
			got = *resp.Items[0].Decision
		} else {
			d, err := c.Ingest(bh, ests[i], u)
			if err != nil {
				t.Fatalf("binary ingest %d: %v", i, err)
			}
			got = toDecisionJSON(d)
		}
		want, err := serial.Step(ests[i], u)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		if want := toDecisionJSON(want); got.Step != want.Step || got.Window != want.Window ||
			got.Deadline != want.Deadline || got.Alarm != want.Alarm ||
			got.Complementary != want.Complementary || got.ComplementaryStep != want.ComplementaryStep ||
			!slices.Equal(got.Dims, want.Dims) {
			t.Fatalf("step %d: %+v != %+v", i, got, want)
		}
	}

	var stats Stats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if stats.Streams != 1 || stats.Tenants["acme"] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestProtocolRejections pins the refusal paths of the frame layer and
// the request validation: unknown messages, unknown handles (handle 0,
// one past the last bound handle, and far past it), bad strategies,
// restore without a checkpoint directory, and the defined
// behaviour for older clients — a Hello announcing protocol 2 is refused
// with an error naming both versions, and a retired single-sample ingest
// frame (type 0x03) is answered with MsgError on a live connection.
func TestProtocolRejections(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)

	if _, err := c.Open("acme", "s", "aircraft-pitch", "definitely-not-a-strategy", 0); err == nil {
		t.Fatalf("bad strategy accepted")
	}
	if _, err := c.Open("bad/tenant", "s", "aircraft-pitch", "adaptive", 0); err == nil {
		t.Fatalf("tenant with separator accepted")
	}
	if _, err := c.Open("acme", "s", "no-such-plant", "adaptive", 0); err == nil {
		t.Fatalf("unknown model accepted")
	}
	if _, err := c.Ingest(999, []float64{0}, []float64{0}); err == nil {
		t.Fatalf("unknown handle accepted")
	}
	if _, err := c.Checkpoint(""); err == nil {
		t.Fatalf("checkpoint without directory accepted")
	}
	if _, err := c.Restore("../escape.awds"); err == nil {
		t.Fatalf("restore with path separator accepted")
	}

	// An unknown frame type is answered with MsgError, not a dropped conn.
	c.reset()
	rtyp, _, err := c.roundTrip(0x7f)
	if err == nil || rtyp == MsgOK {
		t.Fatalf("unknown frame type: rtyp=0x%02x err=%v", rtyp, err)
	}
	// The connection survives to serve the next request.
	if _, err := c.Open("acme", "ok", "aircraft-pitch", "adaptive", 0); err != nil {
		t.Fatalf("open after protocol error: %v", err)
	}

	// A frame of the retired single-sample ingest type gets MsgError, and
	// the connection then serves the next Open.
	c.reset()
	c.enc.U64(1)
	c.enc.F64s([]float64{0})
	c.enc.F64s([]float64{0})
	if rtyp, _, err := c.roundTrip(0x03); err == nil || rtyp != MsgError {
		t.Fatalf("retired ingest frame: rtyp=0x%02x err=%v", rtyp, err)
	}
	last, err := c.Open("acme", "after-retired", "aircraft-pitch", "adaptive", 0)
	if err != nil {
		t.Fatalf("open after retired frame: %v", err)
	}

	// Handles count up from 1: 0 and the handle one past the last bound
	// one resolve to no stream, and fail only their own item.
	for _, h := range []uint64{0, last + 1} {
		if _, err := c.Ingest(h, []float64{0, 0, 0}, []float64{0}); err == nil || err.Error() != fleet.ErrUnknownStream.Error() {
			t.Fatalf("ingest on handle %d (last bound %d): err=%v, want %v", h, last, err, fleet.ErrUnknownStream)
		}
	}
	if _, err := c.Ingest(last, []float64{0, 0, 0}, []float64{0}); err != nil {
		t.Fatalf("ingest on the last bound handle %d: %v", last, err)
	}

	// A protocol-2 client is turned away at the handshake, told both
	// versions.
	old := dial(t, addr)
	old.reset()
	old.enc.U16(2)
	old.enc.String("v2-client")
	rtyp, _, err = old.roundTrip(MsgHello)
	if err == nil || rtyp != MsgError {
		t.Fatalf("protocol 2 hello: rtyp=0x%02x err=%v", rtyp, err)
	}
	if want := fmt.Sprintf("protocol 2, server %d", ProtocolVersion); !strings.Contains(err.Error(), want) {
		t.Fatalf("protocol 2 hello error %q does not name both versions (%q)", err, want)
	}
	_ = srv
}

// TestHTTPBodyLimit pins the HTTP fallback's request bound: a body past
// MaxFrame is answered 413 without being read to its end, and the server
// goes on serving.
func TestHTTPBodyLimit(t *testing.T) {
	srv, _ := startServer(t, Config{})
	httpAddr, err := srv.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartHTTP: %v", err)
	}
	// Syntactically valid JSON as far as it goes, so only the size limit
	// can stop the decoder.
	body := `{"items":[{"handle":1,"estimate":[` + strings.Repeat("0,", MaxFrame/2) + `0]}]}`
	resp, err := http.Post("http://"+httpAddr+"/v1/ingest-batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("oversized POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /v1/ingest-batch: %s, want 413", resp.Status)
	}
	var opened struct {
		Handle uint64 `json:"handle"`
	}
	postJSON(t, httpAddr, "/v1/open",
		openRequest{Tenant: "acme", Stream: "after-413", Model: "aircraft-pitch", Strategy: "adaptive"}, &opened)
	if opened.Handle == 0 {
		t.Fatalf("open after 413 returned handle 0")
	}
}

// TestStreamsSharePlant pins that every stream of a plant runs over the
// one registry instance of its model — live streams opened over separate
// connections and streams rebuilt by Restore alike — so reach.Shared,
// which keys on the plant pointer, builds each plant's tables once per
// process. The two connections ingest concurrently, before and after the
// restore, and the test then checks that nothing on the serving path
// wrote into the shared models: each registry instance must still equal
// a freshly built copy.
func TestStreamsSharePlant(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, Config{CheckpointDir: dir, Workers: 2})
	conns := []*Client{dial(t, addr), dial(t, addr)}
	strategies := []string{"adaptive", "fixed", "cusum", "ewma"}
	type opened struct {
		tenant, model, strategy string
		conn                    int
		handle                  uint64
	}
	var streams []opened
	openAll := func() {
		t.Helper()
		streams = streams[:0]
		for i, name := range models.Names() {
			for k, c := range conns {
				st := opened{tenant: fmt.Sprintf("tenant-%d", k), model: name, strategy: strategies[(i+k)%len(strategies)], conn: k}
				h, err := c.Open(st.tenant, name, name, st.strategy, 0)
				if err != nil {
					t.Fatalf("Open(%s/%s, %s): %v", st.tenant, name, st.strategy, err)
				}
				st.handle = h
				streams = append(streams, st)
			}
		}
	}
	ingest := func(steps int) {
		t.Helper()
		var wg sync.WaitGroup
		for k, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, st := range streams {
					if st.conn != k {
						continue
					}
					ests, u := wireTrajectory(models.ByName(st.model), 3, steps)
					for i := range ests {
						if _, err := c.Ingest(st.handle, ests[i], u); err != nil {
							t.Errorf("Ingest(%s/%s, %d): %v", st.tenant, st.model, i, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	checkShared := func(label string, s *Server) {
		t.Helper()
		for _, st := range streams {
			id := st.tenant + "/" + st.model
			fs, ok := s.Engine().Stream(id)
			if !ok {
				t.Fatalf("%s: no stream %s", label, id)
			}
			if got, want := fs.Detector().Plant(), models.ByName(st.model).Sys; got != want {
				t.Errorf("%s: stream %s runs over plant %p, registry instance of %s is %p", label, id, got, st.model, want)
			}
		}
	}
	openAll()
	ingest(12)
	checkShared("live", srv)
	if _, err := conns[0].Checkpoint("share.awds"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	restored, addr2 := startServer(t, Config{CheckpointDir: dir, Workers: 2})
	conns = []*Client{dial(t, addr2), dial(t, addr2)}
	if _, err := conns[0].Restore("share.awds"); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkShared("restored", restored)
	// Re-attach and step the restored streams too, so the no-write check
	// below covers the restored step path.
	openAll()
	ingest(12)

	for _, fresh := range append(models.All(), models.TestbedCar()) {
		if shared := models.ByName(fresh.Name); !reflect.DeepEqual(shared, fresh) {
			t.Errorf("registry instance of %s no longer equals a freshly built copy: a serving layer wrote into the shared model", fresh.Name)
		}
	}
}

// TestRestoreCorruptSpecCount pins Restore against an untrusted spec
// count: a checkpoint that is only a header, the server section header and
// a count of 0xFFFFFFFF must fail with an error instead of sizing an
// allocation by the count, and the server must go on serving Open and a
// Checkpoint/Restore round trip.
func TestRestoreCorruptSpecCount(t *testing.T) {
	dir := t.TempDir()
	enc := state.NewEncoder()
	enc.Header()
	enc.Begin(state.TagServer, serverStateVersion)
	enc.U32(0xFFFFFFFF)
	if enc.Len() != 12 {
		t.Fatalf("corrupt checkpoint is %d bytes, want 12", enc.Len())
	}
	if err := state.WriteFile(filepath.Join(dir, "corrupt.awds"), enc.Bytes()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	srv, addr := startServer(t, Config{CheckpointDir: dir, Workers: 2})
	c := dial(t, addr)
	if detail, err := c.Restore("corrupt.awds"); err == nil {
		t.Fatalf("Restore of a corrupt count succeeded: %s", detail)
	}
	if n, err := srv.Restore("corrupt.awds"); err == nil {
		t.Fatalf("in-process Restore of a corrupt count succeeded with %d streams", n)
	}

	m := models.ByName("vehicle-turning")
	ests, u := wireTrajectory(m, 5, 20)
	h, err := c.Open("acme", "after-corrupt", m.Name, "adaptive", 0)
	if err != nil {
		t.Fatalf("Open after corrupt restore: %v", err)
	}
	want := make([]core.Decision, len(ests))
	for i := 0; i < 10; i++ {
		if want[i], err = c.Ingest(h, ests[i], u); err != nil {
			t.Fatalf("Ingest(%d): %v", i, err)
		}
	}
	if _, err := c.Checkpoint("good.awds"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 10; i < len(ests); i++ {
		if want[i], err = c.Ingest(h, ests[i], u); err != nil {
			t.Fatalf("Ingest(%d): %v", i, err)
		}
	}

	_, addr2 := startServer(t, Config{CheckpointDir: dir, Workers: 2})
	c2 := dial(t, addr2)
	if detail, err := c2.Restore("good.awds"); err != nil || detail != "1 streams" {
		t.Fatalf("Restore(good.awds) = %q, %v; want 1 stream", detail, err)
	}
	h2, err := c2.Open("acme", "after-corrupt", m.Name, "adaptive", 0)
	if err != nil {
		t.Fatalf("re-Open after restore: %v", err)
	}
	for i := 10; i < len(ests); i++ {
		got, err := c2.Ingest(h2, ests[i], u)
		if err != nil {
			t.Fatalf("restored Ingest(%d): %v", i, err)
		}
		if !wireDecisionsEqual(got, want[i]) {
			t.Fatalf("step %d: restored decision %+v != original %+v", i, got, want[i])
		}
	}
}
