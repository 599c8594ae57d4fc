package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// FuzzFrameRoundTrip drives the frame codec with arbitrary byte streams.
// The invariants under test:
//
//   - readFrameInto never panics and never over-reads: on success it has
//     consumed exactly 5+len(payload) bytes, leaving the rest of the
//     stream intact for the next frame.
//   - A length prefix beyond MaxFrame is rejected before any allocation.
//   - Truncated input errors cleanly (io.ErrUnexpectedEOF family), never
//     blocks or fabricates a frame.
//   - Whatever readFrameInto accepts, writeFrame reproduces byte-for-byte
//     — the codec is its own inverse on the valid subset.
//   - A frame tagged MsgIngestBatch feeds ingestBatch.decode without
//     panicking; anything it accepts re-encodes byte-identically through
//     appendIngestBatch (exact consumption makes the batch codec its own
//     inverse).
//   - A frame tagged MsgDecisionBatch feeds decodeDecisionBatch without
//     panicking, whatever its claimed count, and never decodes more dims
//     than the payload has bytes for.
func FuzzFrameRoundTrip(f *testing.F) {
	// Seed with a valid OK frame, a batch of one and its decision, a
	// two-sample batch and its decisions, a truncated header, an
	// oversized length prefix, and a length/payload mismatch.
	f.Add(frameBytes(f, MsgOK, []byte("ready")))

	enc := state.NewEncoder()
	enc.U32(1)
	appendIngestItem(enc, 7, []float64{0.25}, []float64{-1})
	f.Add(frameBytes(f, MsgIngestBatch, enc.Bytes()))

	enc.Reset()
	enc.U32(1)
	appendBatchDecision(enc, core.Decision{Step: 7, Window: 12, Deadline: 3, Alarm: true, ComplementaryStep: -1, Dims: []int{0, 4}}, nil)
	f.Add(frameBytes(f, MsgDecisionBatch, enc.Bytes()))

	// A two-sample ingest batch and its decision batch.
	enc.Reset()
	appendIngestBatch(enc,
		[]uint64{1, 2},
		[][]float64{{0.5, -1.25}, {3}},
		[][]float64{{0}, {}})
	f.Add(frameBytes(f, MsgIngestBatch, enc.Bytes()))

	enc.Reset()
	enc.U32(2)
	appendBatchDecision(enc, core.Decision{Step: 3, Window: 9, Deadline: 2, Dims: []int{1}}, nil)
	appendBatchDecision(enc, core.Decision{}, errors.New("fleet: unknown stream"))
	f.Add(frameBytes(f, MsgDecisionBatch, enc.Bytes()))

	f.Add([]byte{3, 0, 0}) // truncated header
	var huge [5]byte
	binary.LittleEndian.PutUint32(huge[:4], MaxFrame+1)
	f.Add(huge[:])                         // oversized length prefix
	f.Add([]byte{9, 0, 0, 0, MsgOK, 1, 2}) // claims 9 payload bytes, has 2

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		typ, payload, err := readFrameInto(r, &buf)
		if err != nil {
			// Rejected input: the error must have surfaced without a frame.
			if payload != nil {
				t.Fatalf("readFrameInto returned payload alongside error %v", err)
			}
			return
		}
		// Exact-consumption check: success means precisely one header plus
		// one payload was taken from the stream.
		consumed := len(data) - r.Len()
		if want := 5 + len(payload); consumed != want {
			t.Fatalf("readFrameInto consumed %d bytes, want %d", consumed, want)
		}
		if len(payload) > MaxFrame {
			t.Fatalf("readFrameInto accepted %d-byte payload beyond MaxFrame", len(payload))
		}

		// Round trip: re-encoding the accepted frame reproduces the input
		// prefix bit-for-bit.
		if out := frameBytes(t, typ, payload); !bytes.Equal(out, data[:consumed]) {
			t.Fatalf("round trip mismatch:\n read %x\nwrote %x", data[:consumed], out)
		}

		// Batch ingest payloads must decode or error — never panic — and
		// anything accepted must re-encode to the payload byte for byte:
		// decode enforces exact consumption, so the batch codec is its own
		// inverse on the valid subset.
		if typ == MsgIngestBatch {
			var ib ingestBatch
			ib.reset(len(payload))
			if err := ib.decode(payload); err == nil {
				re := state.NewEncoder()
				appendIngestBatch(re, ib.handles, ib.ests, ib.us)
				if !bytes.Equal(re.Bytes(), payload) {
					t.Fatalf("batch re-encode mismatch:\n  in %x\n out %x", payload, re.Bytes())
				}
			}
		}

		// Decision batch payloads must decode or error for whatever count
		// they claim — never panic, never decode more results than fit, and
		// never claim dims beyond the payload.
		if typ == MsgDecisionBatch && len(payload) >= 4 {
			n := binary.LittleEndian.Uint32(payload[:4])
			// Each result is at least 1 status byte; larger claims must be
			// rejected by the decoder itself when results run out of bytes.
			if int64(n) <= int64(len(payload)) {
				out := make([]IngestResult, n)
				if err := decodeDecisionBatch(state.NewDecoder(payload), out); err == nil {
					dims := 0
					for _, res := range out {
						dims += len(res.Decision.Dims)
					}
					if dims > len(payload)/8 {
						t.Fatalf("decoded %d dims from %d payload bytes", dims, len(payload))
					}
				}
			}
		}

		// A second frame may follow; it must obey the same contract.
		rest := len(data) - consumed
		if _, p2, err := readFrameInto(r, &buf); err == nil {
			if consumed2 := rest - r.Len(); consumed2 != 5+len(p2) {
				t.Fatalf("second readFrameInto consumed %d bytes, want %d", consumed2, 5+len(p2))
			}
		} else if err != io.EOF && err != io.ErrUnexpectedEOF && rest >= 5 {
			// Non-EOF failures with a full header present must be the
			// MaxFrame guard, which precedes allocation.
			n := binary.LittleEndian.Uint32(data[consumed : consumed+4])
			if n <= MaxFrame {
				t.Fatalf("second readFrameInto failed on in-bound frame: %v", err)
			}
		}
	})
}

// frameBytes returns one frame as writeFrame puts it on the wire.
func frameBytes(tb testing.TB, typ byte, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, typ, payload); err != nil {
		tb.Fatalf("writeFrame: %v", err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// burstStreams are the streams both servers of FuzzBurstMatchesSplit open
// before the program runs, over two plants: handles 1 to 3, in this order.
var burstStreams = []struct{ stream, model string }{
	{"a", "vehicle-turning"},
	{"b", "vehicle-turning"},
	{"c", "aircraft-pitch"},
}

// burstFrames decodes fuzz bytes into a list of request frames, one
// opcode byte per frame: ingest frames of one item or of zero to three
// (handles 0 to 5, so zero, unknown and repeated handles all occur), an
// item of the wrong dimension, a truncated payload, a payload with
// trailing bytes, Open (new streams, re-opens and conflicting specs, so
// handles keep being bound mid-program), Hello of this and of an older
// version, an unknown frame type, and Drain, after which every ingest
// frame is refused.
func burstFrames(tb testing.TB, data []byte) [][]byte {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dims := map[uint64]int{1: 1, 2: 1, 3: 3} // state dimension of the preopened handles
	enc := state.NewEncoder()
	item := func(wrongDim bool) {
		h := uint64(next() % 6)
		dim, ok := dims[h]
		if !ok || wrongDim {
			dim = 1 + int(next()%4)
		}
		est := make([]float64, dim)
		for i := range est {
			est[i] = float64(int8(next())) / 64
		}
		appendIngestItem(enc, h, est, []float64{float64(int8(next())) / 32})
	}
	ingest := func(items int, wrongDim bool) []byte {
		enc.Reset()
		enc.U32(uint32(items))
		for i := 0; i < items; i++ {
			item(wrongDim && i == items-1)
		}
		return enc.Bytes()
	}
	var frames [][]byte
	for len(data) > 0 && len(frames) < 48 {
		var f []byte
		switch op := next() % 10; op {
		case 0, 1:
			f = frameBytes(tb, MsgIngestBatch, ingest(1, false))
		case 2:
			f = frameBytes(tb, MsgIngestBatch, ingest(int(next()%4), false))
		case 3:
			f = frameBytes(tb, MsgIngestBatch, ingest(1+int(next()%2), true))
		case 4:
			p := ingest(1+int(next()%2), false)
			f = frameBytes(tb, MsgIngestBatch, p[:len(p)-1-int(next())%len(p)])
		case 5:
			p := append(ingest(1, false), make([]byte, 1+next()%8)...)
			f = frameBytes(tb, MsgIngestBatch, p)
		case 6:
			enc.Reset()
			enc.String("t")
			enc.String(string(rune('a' + next()%4)))
			enc.String(burstStreams[next()%2*2].model)
			enc.String("adaptive")
			enc.Int(0)
			f = frameBytes(tb, MsgOpen, enc.Bytes())
		case 7:
			enc.Reset()
			enc.U16(ProtocolVersion - uint16(next()%2))
			enc.String("fuzz")
			f = frameBytes(tb, MsgHello, enc.Bytes())
		case 8:
			f = frameBytes(tb, 0x7f, nil)
		case 9:
			f = frameBytes(tb, MsgDrain, nil)
		}
		frames = append(frames, f)
	}
	return frames
}

// burstServer returns a server with burstStreams open.
func burstServer(tb testing.TB) *Server {
	srv := NewServer(Config{Workers: 1})
	tb.Cleanup(func() { srv.Close() })
	for i, s := range burstStreams {
		if h, err := srv.Open("t", s.stream, s.model, "adaptive", 0); err != nil || h != uint64(i+1) {
			tb.Fatalf("Open(%s) = %d, %v", s.stream, h, err)
		}
	}
	return srv
}

// readResponses reads n response frames and returns their bytes.
func readResponses(tb testing.TB, br *bufio.Reader, n int) []byte {
	var out, buf []byte
	for i := 0; i < n; i++ {
		typ, payload, err := readFrameInto(br, &buf)
		if err != nil {
			tb.Fatalf("response %d of %d: %v", i, n, err)
		}
		out = append(out, frameBytes(tb, typ, payload)...)
	}
	return out
}

// FuzzBurstMatchesSplit is the byte-identity differential of the
// connection's ingest grouping. Two servers with the same streams open
// receive the same request frames over serveConn: one frame per write,
// each answered before the next is sent, so every group has one frame;
// and all frames in one write, so ingest frames that arrive together are
// decided together. The two response byte streams must be equal: grouping
// changes neither a decision, nor an error, nor a response's place.
func FuzzBurstMatchesSplit(f *testing.F) {
	// Each seed is one case; ops are annotated as op(args).
	f.Add([]byte{0, 1, 10, 20, 0, 1, 30, 40, 1, 2, 50, 60, 0, 1, 70, 80})                                  // one-item frames: a, a, b, a
	f.Add([]byte{2, 3, 1, 10, 20, 3, 1, 2, 3, 30, 1, 40, 50, 2, 0, 2, 2, 1, 60, 70, 1, 80, 90})            // [a c a], an empty frame, [a a]
	f.Add([]byte{0, 0, 0, 10, 20, 0, 4, 2, 1, 2, 3, 30, 0, 5, 0, 7, 8, 0, 1, 10, 20})                      // handle 0, unknown 4 and 5, then a
	f.Add([]byte{3, 0, 1, 1, 5, 6, 7, 3, 1, 1, 10, 20, 3, 0, 5, 9, 0, 2, 30, 40})                          // a with 2 dims; [a, c with 1 dim]; b
	f.Add([]byte{0, 1, 10, 20, 4, 0, 1, 30, 40, 0, 4, 0, 1, 90, 99, 200, 0, 2, 50, 60})                    // a, a cut by 1 byte, a cut to its count, b
	f.Add([]byte{0, 1, 10, 20, 5, 1, 30, 40, 3, 0, 2, 50, 60})                                             // a, a with 4 trailing bytes, b
	f.Add([]byte{0, 1, 10, 20, 6, 3, 0, 0, 4, 0, 30, 40, 6, 0, 0, 0, 5, 0, 50, 60, 6, 1, 1, 0, 2, 70, 80}) // open d (handle 4), ingest 4; re-open a (handle 5), ingest 5; b as another plant (refused); b
	f.Add([]byte{0, 1, 10, 20, 7, 0, 0, 1, 30, 40, 7, 1, 8, 0, 2, 50, 60})                                 // a, Hello, a, protocol-2 Hello, unknown type, b
	f.Add([]byte{0, 1, 10, 20, 2, 2, 1, 30, 40, 2, 50, 60, 9, 0, 1, 70, 80, 4, 0, 1, 90, 99, 0, 2, 0})     // a, [a b], Drain, a, a cut, an empty frame
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := burstFrames(t, data)
		if len(frames) == 0 {
			return
		}
		split := pipeTo(t, burstServer(t))
		sbr := bufio.NewReader(split)
		var want []byte
		for _, fr := range frames {
			if _, err := split.Write(fr); err != nil {
				t.Fatalf("split write: %v", err)
			}
			want = append(want, readResponses(t, sbr, 1)...)
		}

		burst := pipeTo(t, burstServer(t))
		wrote := make(chan error, 1)
		go func() {
			_, err := burst.Write(bytes.Join(frames, nil))
			wrote <- err
		}()
		got := readResponses(t, bufio.NewReader(burst), len(frames))
		if err := <-wrote; err != nil {
			t.Fatalf("burst write: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("responses to %d frames sent in one write differ from one frame per write:\n burst %x\n split %x", len(frames), got, want)
		}
	})
}
