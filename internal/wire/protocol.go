// Package wire exposes the fleet engine over the network: a compact
// length-prefixed binary protocol over TCP for sample ingest and decision
// streaming, an HTTP/JSON fallback for scripting, and checkpoint /drain/
// restore RPCs that persist whole-fleet snapshots through the
// internal/state codec. Everything is stdlib-only.
//
// # Framing
//
// Every message is one frame:
//
//	u32  payload length (little-endian, ≤ MaxFrame)
//	u8   message type
//	...  payload
//
// Payload fields use the internal/state primitive encodings (fixed-width
// little-endian integers, IEEE-754 bit patterns, length-prefixed strings)
// without the snapshot container header — framing already delimits
// messages. Each request frame gets exactly one response frame: MsgOpened
// for MsgOpen, MsgDecisionBatch for MsgIngestBatch, MsgOK for the rest,
// MsgError for any failure. The per-request payloads are documented on
// the Client methods, which are the reference implementation.
//
// # One ingest encoding
//
// Samples travel only in MsgIngestBatch frames, answered by one
// MsgDecisionBatch carrying a decision or an error per item. A single
// sample is a batch of one: Client.Ingest and Pipeline.Ingest send a
// one-item batch, and the HTTP fallback's only ingest route is
// POST /v1/ingest-batch. There is one codec, one server path, and one
// fuzz surface. The Hello handshake carries ProtocolVersion, and the
// server refuses every other version, so a client of another version is
// turned away before it can send a frame type this version lacks.
//
// # Pipelining
//
// Responses are delivered strictly in request order, and a client may have
// many requests in flight on one connection. One goroutine serves each
// connection: it handles frames in arrival order, buffers their responses,
// and flushes before any read that could block, that is whenever the next
// request frame is not yet whole in its read buffer. Ingest frames that
// arrived together are decided together: an ingest frame and every
// further ingest frame already whole in the read buffer go to the engine
// as one batch, and each still gets its own response, byte for byte the
// one it would get alone. So a pipelined client pays the network round
// trip once per window rather than once per sample, the engine steps the
// window's samples as shard batches, and the responses to frames that
// arrived together leave in one write. Batching carries many samples in
// one frame for the same amortization at the framing layer.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/state"
)

// MaxFrame bounds a frame payload; anything larger is a protocol error.
// The largest legitimate frame is an ingest for a wide plant (a few
// hundred bytes), so 1 MiB is generous without letting a hostile peer
// balloon server memory.
const MaxFrame = 1 << 20

// ProtocolVersion is exchanged by MsgHello; the server refuses a client
// announcing any other version, so a client that may send frame types
// this version lacks is turned away at the handshake, not mid-stream.
const ProtocolVersion uint16 = 3

// Request message types.
const (
	MsgHello       = 0x01 // u16 version, string client name
	MsgOpen        = 0x02 // string tenant, stream, model, strategy; i64 fixedWin
	MsgCheckpoint  = 0x04 // string name (optional; "" = server picks)
	MsgDrain       = 0x05 // empty
	MsgRestore     = 0x06 // string path
	MsgIngestBatch = 0x07 // u32 count, then per sample: u64 handle, f64s estimate, f64s input
)

// Response message types.
const (
	MsgOK            = 0x80 // string detail (may be empty)
	MsgError         = 0x81 // string message
	MsgOpened        = 0x82 // u64 handle
	MsgDecisionBatch = 0x84 // u32 count, then per sample: u8 status, decision (0) or string error (1)
)

// writeFrame stages one frame in w. The payload must fit MaxFrame. The
// header is appended into w's free buffer space: a header array passed to
// Write escapes through the underlying io.Writer and would cost one
// allocation per frame.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds %d", len(payload), MaxFrame)
	}
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	if _, err := w.Write(append(hdr, typ)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameInto receives one frame into *buf, growing it only when a frame
// exceeds every previous frame's size — the steady-state ingest loop
// therefore reads frames without allocating. The returned payload aliases
// *buf and is valid until the next call; the MaxFrame bound is enforced
// before any growth.
func readFrameInto(r io.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	// The header is read through *buf as well: a stack array passed to an
	// io.Reader escapes and would cost one allocation per frame.
	if cap(*buf) < 5 {
		*buf = make([]byte, 64)
	}
	hdr := (*buf)[:5]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	typ = hdr[4]
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds %d", n, MaxFrame)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// frameBuffered reports whether br already holds the next whole frame, so
// that reading it cannot block, and that frame's type. A frame larger than
// br's buffer never counts as buffered.
func frameBuffered(br *bufio.Reader) (typ byte, whole bool) {
	n := br.Buffered()
	if n < 5 {
		return 0, false
	}
	hdr, err := br.Peek(5) // already buffered: Peek does not read
	if err != nil {
		return 0, false
	}
	return hdr[4], uint32(n-5) >= binary.LittleEndian.Uint32(hdr[:4])
}

// appendDecision encodes a core.Decision, the body of a batchOK item.
func appendDecision(enc *state.Encoder, d core.Decision) {
	enc.I64(int64(d.Step))
	enc.Int(d.Window)
	enc.Int(d.Deadline)
	enc.Bool(d.Alarm)
	enc.Bool(d.Complementary)
	enc.I64(int64(d.ComplementaryStep))
	enc.U32(uint32(len(d.Dims)))
	for _, dim := range d.Dims {
		enc.Int(dim)
	}
}

// Per-sample status bytes inside a MsgDecisionBatch payload.
const (
	batchOK  = 0 // followed by an encoded decision
	batchErr = 1 // followed by a length-prefixed error string
)

// appendIngestBatch encodes a MsgIngestBatch payload: one (handle,
// estimate, input) tuple per sample. The three slices must have equal
// length (the client validates before calling).
func appendIngestBatch(enc *state.Encoder, handles []uint64, estimates, inputs [][]float64) {
	enc.U32(uint32(len(handles)))
	for i, h := range handles {
		appendIngestItem(enc, h, estimates[i], inputs[i])
	}
}

// appendIngestItem encodes one sample of a MsgIngestBatch payload.
func appendIngestItem(enc *state.Encoder, handle uint64, estimate, input []float64) {
	enc.U64(handle)
	enc.F64s(estimate)
	enc.F64s(input)
}

// ingestBatch is the decoded form of a group of MsgIngestBatch payloads:
// every frame's samples, appended in arrival order. Its slices and the
// flat float slab backing every vector are reused across groups, so a
// warm connection parses batches without allocating.
type ingestBatch struct {
	handles  []uint64
	ests, us [][]float64 // alias slab, one pair per sample
	slab     []float64
	off      int // slab floats handed out
	dec      state.Decoder
}

// minBatchSampleBytes is the smallest legal encoded sample: a u64 handle
// plus two empty length-prefixed vectors.
const minBatchSampleBytes = 8 + 4 + 4

// reset empties the batch for a group whose payloads total at most
// maxBytes. Every float takes 8 payload bytes, so that bounds the slab
// before any vector is read: decode hands out slab-aliasing vectors in
// one pass, and the slab never reallocates under them.
func (ib *ingestBatch) reset(maxBytes int) {
	if most := maxBytes / 8; cap(ib.slab) < most {
		ib.slab = make([]float64, most)
	}
	ib.off = 0
	ib.handles = ib.handles[:0]
	ib.ests = ib.ests[:0]
	ib.us = ib.us[:0]
}

// decode parses one payload and appends its samples to the batch. The
// payload must be consumed exactly — trailing bytes are a protocol error,
// which is what makes the encoding its own inverse (the fuzz target checks
// re-encoding reproduces the payload byte for byte). A payload that fails
// leaves the batch as it was, so its neighbours in the group are kept.
func (ib *ingestBatch) decode(payload []byte) (err error) {
	n0, off0 := len(ib.handles), ib.off
	defer func() {
		if err != nil {
			ib.handles, ib.ests, ib.us, ib.off = ib.handles[:n0], ib.ests[:n0], ib.us[:n0], off0
		}
	}()
	d := &ib.dec
	d.Reset(payload)
	n := d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	if int(n) > d.Remaining()/minBatchSampleBytes {
		return fmt.Errorf("wire: batch claims %d samples in %d bytes", n, d.Remaining())
	}
	slab := ib.slab[:cap(ib.slab)]
	for i := 0; i < int(n); i++ {
		ib.handles = append(ib.handles, d.U64())
		for j := 0; j < 2; j++ {
			k := d.U32()
			if err := d.Err(); err != nil {
				return err
			}
			if int(k) > d.Remaining()/8 {
				return fmt.Errorf("wire: batch sample %d claims %d floats in %d bytes", i, k, d.Remaining())
			}
			// The claim is within the payload, so the floats are read in
			// place rather than through the decoder's per-field checks.
			v, at := slab[ib.off:ib.off+int(k):ib.off+int(k)], d.Offset()
			for x := range v {
				v[x] = math.Float64frombits(binary.LittleEndian.Uint64(payload[at+8*x:]))
			}
			d.SkipTo(at + 8*int(k))
			ib.off += int(k)
			if j == 0 {
				ib.ests = append(ib.ests, v)
			} else {
				ib.us = append(ib.us, v)
			}
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after batch", d.Remaining())
	}
	return nil
}

// appendBatchDecision encodes one sample's outcome inside a
// MsgDecisionBatch payload.
func appendBatchDecision(enc *state.Encoder, d core.Decision, err error) {
	if err != nil {
		enc.U8(batchErr)
		enc.String(err.Error())
		return
	}
	enc.U8(batchOK)
	appendDecision(enc, d)
}

// decodeDecisionBatch parses a MsgDecisionBatch payload into out; the
// encoded count must equal len(out) (the client knows how many samples it
// sent). Per-sample server errors come back as out[i].Err.
func decodeDecisionBatch(dec *state.Decoder, out []IngestResult) error {
	n := dec.U32()
	if err := dec.Err(); err != nil {
		return err
	}
	if int(n) != len(out) {
		return fmt.Errorf("wire: decision batch carries %d results, want %d", n, len(out))
	}
	for i := range out {
		r := &out[i]
		*r = IngestResult{}
		switch status := dec.U8(); status {
		case batchOK:
			if err := decodeDecision(dec, &r.Decision); err != nil {
				return err
			}
		case batchErr:
			msg := dec.String()
			if err := dec.Err(); err != nil {
				return err
			}
			r.Err = errors.New(msg)
		default:
			if err := dec.Err(); err != nil {
				return err
			}
			return fmt.Errorf("wire: decision batch status byte %d", status)
		}
	}
	return dec.Err()
}

// decodeDecision parses the body of a batchOK item into d, which must be
// zero; on error d holds whatever was decoded before the failure.
func decodeDecision(dec *state.Decoder, d *core.Decision) error {
	d.Step = int(dec.I64())
	d.Window = dec.Int()
	d.Deadline = dec.Int()
	d.Alarm = dec.Bool()
	d.Complementary = dec.Bool()
	d.ComplementaryStep = int(dec.I64())
	ndims := dec.U32()
	if err := dec.Err(); err != nil {
		return err
	}
	if ndims > 0 {
		if int(ndims) > dec.Remaining()/8 {
			return fmt.Errorf("wire: decision claims %d dims in %d bytes", ndims, dec.Remaining())
		}
		d.Dims = make([]int, ndims)
		for i := range d.Dims {
			d.Dims[i] = dec.Int()
		}
	}
	return dec.Err()
}
