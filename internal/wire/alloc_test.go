package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"repro/internal/models"
	"repro/internal/noise"
	"repro/internal/state"
)

// TestReadFrameIntoAllocs pins the frame codec allocation-free in both
// directions: writeFrame appends the header into the writer's own buffer,
// and readFrameInto reuses its buffer once it has grown to the
// connection's largest frame — each side would otherwise pay a heap
// allocation per frame.
func TestReadFrameIntoAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 64)
	var link bytes.Buffer
	w := bufio.NewWriter(&link)
	var buf []byte
	roundTrip := func() {
		link.Reset()
		if err := writeFrame(w, MsgIngestBatch, payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		typ, p, err := readFrameInto(&link, &buf)
		if err != nil || typ != MsgIngestBatch || len(p) != 64 {
			t.Fatalf("readFrameInto: typ=0x%02x len=%d err=%v", typ, len(p), err)
		}
	}
	roundTrip() // grows the read buffer and the link buffer once
	if avg := testing.AllocsPerRun(100, roundTrip); avg > 0 {
		t.Fatalf("frame write+read allocates %.2f per frame, want 0", avg)
	}
}

// TestServerBatchIngestSteadyStateAllocs pins the whole server-side
// ingest path — frame read and decode, handle resolution, fleet submit,
// decision encode and response write — at 0 allocs/op once the
// connection scratch is warm. n=1 is the batch of one that every
// single-sample call sends, the per-sample cost a saturated connection
// pays; n=8 carries one silent sample for each of several streams in one
// frame; burst=16 is sixteen one-item frames that arrived in one read, the
// way a pipelined client's window does, answered as one group. Any
// allocation here is a throughput regression at fleet scale.
func TestServerBatchIngestSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		streams       int
		frameEachItem bool
	}{
		{"n=1", 1, false},
		{"n=8", 8, false},
		{"burst=16", 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(Config{Workers: 2})
			defer srv.Close()
			m := models.ByName("aircraft-pitch")
			n := tc.streams
			handles := make([]uint64, n)
			ests := make([][]float64, n)
			inputs := make([][]float64, n)
			gen := noise.NewBall(5, m.Sys.StateDim(), m.Eps)
			for i := 0; i < n; i++ {
				h, err := srv.Open("alloc", fmt.Sprintf("s-%d", i), "aircraft-pitch", "adaptive", 0)
				if err != nil {
					t.Fatalf("Open(%d): %v", i, err)
				}
				handles[i] = h
				ests[i] = gen.Sample(i)
				inputs[i] = make([]float64, m.Sys.InputDim())
			}
			enc := state.NewEncoder()
			var req []byte
			frames := 1
			if tc.frameEachItem {
				frames = n
				for i := range handles {
					enc.Reset()
					appendIngestBatch(enc, handles[i:i+1], ests[i:i+1], inputs[i:i+1])
					req = append(req, frameBytes(t, MsgIngestBatch, enc.Bytes())...)
				}
			} else {
				appendIngestBatch(enc, handles, ests, inputs)
				req = frameBytes(t, MsgIngestBatch, enc.Bytes())
			}
			cs := newConnState(srv.Engine())
			link := bytes.NewReader(req)
			br := bufio.NewReader(link)
			var resp bytes.Buffer
			bw := bufio.NewWriter(&resp)
			serve := func() {
				link.Reset(req)
				br.Reset(link)
				resp.Reset()
				typ, payload, err := readFrameInto(br, &cs.frame)
				if err != nil || typ != MsgIngestBatch {
					t.Fatalf("read request: typ=0x%02x err=%v", typ, err)
				}
				if err := srv.serveIngest(cs, br, bw, payload); err != nil {
					t.Fatalf("serveIngest: %v", err)
				}
				if err := bw.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}
				if br.Buffered() != 0 || len(cs.group) != frames {
					t.Fatalf("group of %d frames left %d bytes unread, want %d frames", len(cs.group), br.Buffered(), frames)
				}
				if typ := resp.Bytes()[4]; typ != MsgDecisionBatch {
					t.Fatalf("response type 0x%02x", typ)
				}
			}
			for i := 0; i < 8; i++ { // warm the scratch buffers
				serve()
			}
			if avg := testing.AllocsPerRun(100, serve); avg > 0 {
				t.Fatalf("steady-state batch ingest allocates %.2f per group, want 0", avg)
			}
		})
	}
}

// TestServerOpenAllocs pins the cost of opening a stream. Every stream of
// a plant shares the registry model and its reachability tables, so an
// Open builds only the stream's own detector state: 71 allocations for
// the 12-state quadrotor and 27 for vehicle-turning. The ceilings are
// twice those counts; an Open that rebuilds the plant and its tables
// allocates ~2,200 and ~800.
func TestServerOpenAllocs(t *testing.T) {
	for _, tc := range []struct {
		model string
		max   float64
	}{
		{"quadrotor", 142},
		{"vehicle-turning", 54},
	} {
		t.Run(tc.model, func(t *testing.T) {
			srv := NewServer(Config{Workers: 2})
			defer srv.Close()
			// The first Open of a plant builds its reachability tables once
			// for the process; what is pinned is every Open after it.
			if _, err := srv.Open("alloc", "warm", tc.model, "adaptive", 0); err != nil {
				t.Fatalf("Open(warm): %v", err)
			}
			const runs = 200
			ids := make([]string, runs+1) // AllocsPerRun adds one warm-up call
			for i := range ids {
				ids[i] = fmt.Sprintf("s-%04d", i)
			}
			next := 0
			avg := testing.AllocsPerRun(runs, func() {
				if _, err := srv.Open("alloc", ids[next], tc.model, "adaptive", 0); err != nil {
					t.Fatalf("Open(%s): %v", ids[next], err)
				}
				next++
			})
			if avg > tc.max {
				t.Fatalf("Open of a %s stream allocates %.1f, want <= %.0f", tc.model, avg, tc.max)
			}
		})
	}
}
