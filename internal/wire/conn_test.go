package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/state"
)

// ingestFrames encodes one one-item MsgIngestBatch frame per estimate, as
// the bytes a client puts on the wire.
func ingestFrames(t *testing.T, h uint64, ests [][]float64, u []float64) [][]byte {
	t.Helper()
	enc := state.NewEncoder()
	frames := make([][]byte, len(ests))
	for i, est := range ests {
		enc.Reset()
		appendIngestBatch(enc, []uint64{h}, [][]float64{est}, [][]float64{u})
		var b bytes.Buffer
		bw := bufio.NewWriter(&b)
		if err := writeFrame(bw, MsgIngestBatch, enc.Bytes()); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		frames[i] = b.Bytes()
	}
	return frames
}

// readDecision reads one response frame from a raw connection and decodes
// its one-item decision batch; it returns the frame's size on the wire.
func readDecision(t *testing.T, conn net.Conn, br *bufio.Reader, buf *[]byte) (core.Decision, int) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatalf("SetReadDeadline: %v", err)
	}
	typ, payload, err := readFrameInto(br, buf)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if typ != MsgDecisionBatch {
		t.Fatalf("response type 0x%02x, want MsgDecisionBatch", typ)
	}
	var dec state.Decoder
	dec.Reset(payload)
	var res [1]IngestResult
	if err := decodeDecisionBatch(&dec, res[:]); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if res[0].Err != nil {
		t.Fatalf("item error: %v", res[0].Err)
	}
	return res[0].Decision, 5 + len(payload)
}

// TestFlushBeforePartialFrame pins the connection's flush rule: the server
// flushes whenever the next request frame is not yet whole in its read
// buffer. A raw client sends one whole frame plus a prefix of the next —
// cut inside the header, after the header, and inside the payload — and
// must get the first response before it sends the rest. A rule that
// flushed only on an empty read buffer, or on a whole header, would hold
// that response until the client sent bytes it is not going to send.
func TestFlushBeforePartialFrame(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1})
	m := models.ByName("vehicle-turning")
	h, err := srv.Open("flush", "s", m.Name, "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	serial, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
	if err != nil {
		t.Fatalf("Detector: %v", err)
	}
	splits := []int{3, 5, 5 + 4 + 8}
	ests, u := wireTrajectory(m, 3, 2*len(splits))
	frames := ingestFrames(t, h, ests, u)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var rbuf []byte
	expect := func(step int) {
		got, _ := readDecision(t, conn, br, &rbuf)
		want, err := serial.Step(ests[step], u)
		if err != nil {
			t.Fatalf("serial step %d: %v", step, err)
		}
		if !wireDecisionsEqual(got, want) {
			t.Fatalf("step %d: %+v != serial %+v", step, got, want)
		}
	}
	for i, split := range splits {
		first, second := frames[2*i], frames[2*i+1]
		if _, err := conn.Write(append(append([]byte(nil), first...), second[:split]...)); err != nil {
			t.Fatalf("write: %v", err)
		}
		expect(2 * i) // answered while the next frame is still partial
		if _, err := conn.Write(second[split:]); err != nil {
			t.Fatalf("write: %v", err)
		}
		expect(2*i + 1)
	}
}

// writeCounter counts the Write calls that reach a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestBurstAnsweredInFewestWrites pins the other half of the flush rule:
// while the next request frame is already whole in the read buffer the
// server does not flush, so the responses to frames that arrived together
// leave in as few writes as the 4 KiB writer allows, in request order.
func TestBurstAnsweredInFewestWrites(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	m := models.ByName("vehicle-turning")
	h, err := srv.Open("burst", "s", m.Name, "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	serial, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
	if err != nil {
		t.Fatalf("Detector: %v", err)
	}
	const burst = 64
	ests, u := wireTrajectory(m, 9, burst)
	var req []byte
	for _, f := range ingestFrames(t, h, ests, u) {
		req = append(req, f...)
	}
	if len(req) > 4096 {
		t.Fatalf("burst is %d B; it must fit one 4 KiB read buffer", len(req))
	}

	client, server := net.Pipe()
	defer client.Close()
	sc := &writeCounter{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(sc)
	}()
	if err := client.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatalf("SetWriteDeadline: %v", err)
	}
	if _, err := client.Write(req); err != nil { // one write: the whole burst
		t.Fatalf("write burst: %v", err)
	}
	br := bufio.NewReader(client)
	var rbuf []byte
	total := 0
	for k := 0; k < burst; k++ {
		got, n := readDecision(t, client, br, &rbuf)
		total += n
		want, err := serial.Step(ests[k], u)
		if err != nil {
			t.Fatalf("serial step %d: %v", k, err)
		}
		if !wireDecisionsEqual(got, want) {
			t.Fatalf("response %d: %+v != serial %+v (order broken?)", k, got, want)
		}
	}
	client.Close()
	<-done
	if got, want := int(sc.writes.Load()), (total+4095)/4096; got != want {
		t.Fatalf("%d responses (%d B) took %d writes, want %d", burst, total, got, want)
	}
}

// TestCloseEndsIdleConnections pins Server.Close with a client connected
// that sends nothing: Close ends the connection instead of waiting for
// the client to hang up, the client's next call fails, and a connection
// accepted after Close has begun is refused.
func TestCloseEndsIdleConnections(t *testing.T) {
	srv, addr := startServer(t, Config{Workers: 1})
	c := dial(t, addr)
	m := models.ByName("vehicle-turning")
	h, err := c.Open("close", "s", m.Name, "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ests, u := wireTrajectory(m, 1, 2)
	if _, err := c.Ingest(h, ests[0], u); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Close still blocked after 5s with an idle client connected")
	}
	if _, err := c.Ingest(h, ests[1], u); err == nil {
		t.Fatalf("ingest after Close succeeded")
	}
	late, other := net.Pipe()
	defer other.Close()
	if srv.track(late) {
		t.Fatalf("a connection accepted after Close was tracked")
	}
	late.Close()
}

// pipeTo serves the server end of an in-memory pipe on srv, as the accept
// loop would, and returns the client end. Cleanup hangs up and waits for
// the connection goroutine.
func pipeTo(tb testing.TB, srv *Server) net.Conn {
	tb.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(server)
	}()
	tb.Cleanup(func() {
		client.Close()
		<-done
	})
	if err := client.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		tb.Fatalf("SetDeadline: %v", err)
	}
	return client
}

// TestBurstDecidedInOneBatch pins the read-side grouping: 64 one-item
// frames for 64 streams of one plant, sent in one write, are decided in
// one engine batch, where frame-at-a-time handling steps 64. One P keeps
// the run-queue worker, which Batcher.Submit hands a one-shard wave's
// claim, from stepping before the whole wave is enqueued; the count then
// shows how many Submit calls the connection made.
func TestBurstDecidedInOneBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := obs.NewRegistry()
	srv := NewServer(Config{Workers: 1, Observer: obs.NewObserver(reg, nil)})
	defer srv.Close()
	m := models.ByName("vehicle-turning")
	const burst = 64
	ests, u := wireTrajectory(m, 4, burst)
	var req []byte
	serial := make([]core.Decision, burst)
	for i := range ests {
		h, err := srv.Open("group", fmt.Sprintf("s-%02d", i), m.Name, "adaptive", 0)
		if err != nil {
			t.Fatalf("Open(%d): %v", i, err)
		}
		req = append(req, ingestFrames(t, h, ests[i:i+1], u)[0]...)
		det, err := sim.Detector(sim.Config{Model: m, Strategy: sim.Adaptive})
		if err != nil {
			t.Fatalf("Detector: %v", err)
		}
		if serial[i], err = det.Step(ests[i], u); err != nil {
			t.Fatalf("serial step: %v", err)
		}
	}
	batches := reg.Counter(obs.MetricFleetBatches, "")
	before := batches.Value()
	client := pipeTo(t, srv)
	if _, err := client.Write(req); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	br := bufio.NewReader(client)
	var rbuf []byte
	for i := range serial {
		if got, _ := readDecision(t, client, br, &rbuf); !wireDecisionsEqual(got, serial[i]) {
			t.Fatalf("stream %d: %+v != serial %+v", i, got, serial[i])
		}
	}
	if got := batches.Value() - before; got != 1 {
		t.Fatalf("a %d-frame burst took %d engine batches, want 1", burst, got)
	}
}

// TestIngestGroupStopsAtCheckpoint pins the group's boundary: a group
// never reaches past a frame that is not an ingest frame. One write holds
// [ingest s, checkpoint, ingest s], and the checkpoint must record exactly
// one step of s — the consistency cut falls where the client put it.
func TestIngestGroupStopsAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Config{Workers: 1, CheckpointDir: dir})
	defer srv.Close()
	m := models.ByName("vehicle-turning")
	h, err := srv.Open("cut", "s", m.Name, "adaptive", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ests, u := wireTrajectory(m, 6, 2)
	frames := ingestFrames(t, h, ests, u)
	enc := state.NewEncoder()
	enc.String("cut.awds")
	req := append(append(append([]byte(nil), frames[0]...), frameBytes(t, MsgCheckpoint, enc.Bytes())...), frames[1]...)

	client := pipeTo(t, srv)
	if _, err := client.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	br := bufio.NewReader(client)
	var rbuf []byte
	readDecision(t, client, br, &rbuf)
	if typ, payload, err := readFrameInto(br, &rbuf); err != nil || typ != MsgOK {
		t.Fatalf("checkpoint response: typ=0x%02x payload=%q err=%v", typ, payload, err)
	}
	readDecision(t, client, br, &rbuf)

	fresh := NewServer(Config{Workers: 1, CheckpointDir: dir})
	defer fresh.Close()
	if _, err := fresh.Restore("cut.awds"); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	st, ok := fresh.Engine().Stream("cut/s")
	if !ok {
		t.Fatalf("restored fleet has no stream cut/s")
	}
	if got := st.Steps(); got != 1 {
		t.Fatalf("checkpoint between two ingest frames recorded %d steps, want 1", got)
	}
}
