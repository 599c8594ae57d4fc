// Package state is the serialization layer of the detection pipeline: a
// versioned, deterministic binary codec that every component holding
// decision state — the logger ring, the detectors' window sums, the
// assembled core.System, and whole fleet engines — encodes itself through
// via an explicit Snapshot/Restore pair. Structures no decision reads (the
// deadline warm start and shard certificates) are rebuilt after a
// restore, never serialized.
//
// The codec is deliberately primitive: fixed little-endian integer widths,
// IEEE-754 bit patterns for floats, length-prefixed strings and slices, no
// maps, no reflection, and a fixed field order per component. Two snapshots
// of equal state are therefore byte-identical, which is what makes
// "restore == never-crashed" a testable bit-identity claim rather than an
// approximate one (the differential tests in internal/fleet and
// internal/wire pin it end to end).
//
// Versioning rules (see DESIGN.md §10):
//
//   - A snapshot container starts with the 4-byte magic "AWDS" and a u16
//     container version. Readers reject unknown container versions.
//   - Every component writes a one-byte tag and a one-byte component
//     version before its fields. Readers reject mismatched tags (a
//     structural error — the stream is not what the caller thinks it is)
//     and component versions newer than they understand.
//   - Changing a component's field layout requires bumping its component
//     version; removing a component or reordering components requires
//     bumping the container version.
//
// Decoding never panics: all reads are bounds-checked against the buffer
// and errors are sticky — the first failure poisons the decoder, every
// later read returns zero values, and Err reports the original cause. This
// makes restore paths safe to run on truncated or corrupted checkpoint
// files (the fuzz target FuzzSnapshotRoundTrip exercises exactly that).
package state

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic identifies a snapshot container.
const Magic = "AWDS"

// Version is the container format version written by Encoder.Header.
// Version 2 removed the deadline estimator and certificate components;
// Header refuses version 1 files.
const Version = 2

// Component tags. One byte each; tags are part of the wire format and must
// never be reused for a different component. 'D' (deadline estimator) and
// 'K' (shard certificate) are retired with container version 1: never
// reuse them.
const (
	TagLogger   = 'L'
	TagWindow   = 'W'
	TagAdaptive = 'A'
	TagFixed    = 'F'
	TagCUSUM    = 'C'
	TagEWMA     = 'E'
	TagSystem   = 'S'
	TagFleet    = 'Z'
	TagServer   = 'V'
)

// ErrTruncated reports a read past the end of the snapshot buffer.
var ErrTruncated = errors.New("state: truncated snapshot")

// spillThreshold is how many bytes an encoder with a sink (EncodeFile)
// buffers before it writes them out at the next component boundary. It
// bounds a checkpoint's memory independently of the fleet's size and
// does not affect a single byte of the output.
const spillThreshold = 256 << 10

// Encoder builds a snapshot by appending to an owned buffer. The zero
// value is ready to use; the write methods never fail (the buffer grows as
// needed), so component Snapshot methods need no error plumbing.
//
// An encoder made by EncodeFile also has a sink: at each Begin, once more
// than spillThreshold bytes are buffered, it writes the buffer to the
// sink and reuses it. A sink write error is kept and reported by
// EncodeFile; the component code never sees it.
type Encoder struct {
	buf     []byte
	w       io.Writer // sink for spilled bytes; nil keeps every byte in buf
	spilled int       // bytes already written to w
	err     error     // first write error from w
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded snapshot — for an encoder with a sink, only
// the bytes not yet written to it. The slice aliases the encoder's
// buffer; it is valid until the next write.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far, spilled ones included.
func (e *Encoder) Len() int { return e.spilled + len(e.buf) }

// Reset discards the encoded bytes but keeps the buffer, so a long-lived
// encoder (a network client staging one request per round trip) stops
// allocating once warm. Slices returned by Bytes before the Reset alias
// the buffer and are invalidated by it.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Header writes the container magic and version; call it once at the start
// of a top-level snapshot.
func (e *Encoder) Header() {
	e.buf = append(e.buf, Magic...)
	e.U16(Version)
}

// Begin writes a component header: its tag byte and component version.
// A component boundary is where an encoder with a sink spills: every byte
// before it is final.
func (e *Encoder) Begin(tag byte, version uint8) {
	if e.w != nil && len(e.buf) > spillThreshold {
		e.spill()
	}
	e.buf = append(e.buf, tag, version)
}

// spill writes the buffered bytes to the sink and empties the buffer.
// After a write error the bytes are dropped rather than kept: the file is
// lost either way, and dropping keeps the memory bound.
func (e *Encoder) spill() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.spilled += len(e.buf)
	e.buf = e.buf[:0]
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern, little-endian. The
// encoding is exact: NaN payloads, signed zeros, and subnormals round-trip
// bit-for-bit.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// F64s appends a length-prefixed float64 slice.
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, f := range v {
		e.F64(f)
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads a snapshot produced by Encoder. Errors are sticky: after
// the first failure every read returns zero values and Err reports the
// cause, so restore code can decode a whole component and check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b. The decoder does not copy b;
// callers must not mutate it during decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset re-aims the decoder at b, clearing any sticky error, so a
// long-lived decoder (a network server decoding one request per frame)
// avoids a per-message allocation. The previous buffer is released.
func (d *Decoder) Reset(b []byte) {
	d.buf = b
	d.off = 0
	d.err = nil
}

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the current read position.
func (d *Decoder) Offset() int { return d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// need reports whether n more bytes are available, poisoning the decoder
// if not.
func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf)-d.off < n {
		d.fail(ErrTruncated)
		return false
	}
	return true
}

// Header checks the container magic and version.
func (d *Decoder) Header() error {
	if !d.need(len(Magic) + 2) {
		return d.err
	}
	if string(d.buf[d.off:d.off+len(Magic)]) != Magic {
		d.fail(fmt.Errorf("state: bad magic %q", d.buf[d.off:d.off+len(Magic)]))
		return d.err
	}
	d.off += len(Magic)
	if v := d.U16(); v != Version {
		d.fail(fmt.Errorf("state: unsupported container version %d (have %d)", v, Version))
	}
	return d.err
}

// Expect consumes a component header and checks its tag; it returns the
// component version, failing the decoder when the tag mismatches or the
// version is newer than maxVersion.
func (d *Decoder) Expect(tag byte, maxVersion uint8) uint8 {
	if !d.need(2) {
		return 0
	}
	got := d.buf[d.off]
	ver := d.buf[d.off+1]
	d.off += 2
	if got != tag {
		d.fail(fmt.Errorf("state: component tag %q, want %q", got, tag))
		return 0
	}
	if ver == 0 || ver > maxVersion {
		d.fail(fmt.Errorf("state: component %q version %d, support 1..%d", tag, ver, maxVersion))
		return 0
	}
	return ver
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := uint16(d.buf[d.off]) | uint16(d.buf[d.off+1])<<8
	d.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	b := d.buf[d.off:]
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	b := d.buf[d.off:]
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	d.off += 8
	return v
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads one byte as a bool; any byte other than 0 or 1 poisons the
// decoder (it signals stream corruption, not a flexible truthy value).
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.fail(fmt.Errorf("state: bool byte %d", v))
		return false
	}
	return v == 1
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// F64s reads a length-prefixed float64 slice into dst, which must have
// exactly the encoded length — component layouts fix their vector sizes, so
// a length mismatch is a structural error, not a resize request.
func (d *Decoder) F64s(dst []float64) {
	n := d.U32()
	if d.err != nil {
		return
	}
	if int(n) != len(dst) {
		d.fail(fmt.Errorf("state: float slice length %d, want %d", n, len(dst)))
		return
	}
	if !d.need(8 * len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = d.F64()
	}
}

// String reads a length-prefixed string. The length is bounds-checked
// against the remaining buffer before allocating.
func (d *Decoder) String() string {
	n := d.U32()
	if d.err != nil || !d.need(int(n)) {
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// SkipTo advances the read position to off (which must not move backward
// or past the end of the buffer).
func (d *Decoder) SkipTo(off int) {
	if d.err != nil {
		return
	}
	if off < d.off || off > len(d.buf) {
		d.fail(fmt.Errorf("state: bad skip target %d (at %d of %d)", off, d.off, len(d.buf)))
		return
	}
	d.off = off
}
