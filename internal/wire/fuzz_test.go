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
