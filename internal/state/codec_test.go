package state

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	e := NewEncoder()
	e.Header()
	e.Begin(TagSystem, 1)
	e.U8(7)
	e.U16(65534)
	e.U32(1 << 30)
	e.U64(1 << 62)
	e.I64(-12345678901234)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Pi)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(-1))
	e.F64s([]float64{1.5, -2.25, 0})
	e.String("tenant/stream-0001")

	d := NewDecoder(e.Bytes())
	if err := d.Header(); err != nil {
		t.Fatalf("Header: %v", err)
	}
	if v := d.Expect(TagSystem, 1); v != 1 {
		t.Fatalf("Expect version = %d, want 1", v)
	}
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := d.U16(); got != 65534 {
		t.Fatalf("U16 = %d", got)
	}
	if got := d.U32(); got != 1<<30 {
		t.Fatalf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<62 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -12345678901234 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatalf("Bool round-trip failed")
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0 not preserved: %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("-Inf not preserved: %v", got)
	}
	fs := make([]float64, 3)
	d.F64s(fs)
	if fs[0] != 1.5 || fs[1] != -2.25 || fs[2] != 0 {
		t.Fatalf("F64s = %v", fs)
	}
	if got := d.String(); got != "tenant/stream-0001" {
		t.Fatalf("String = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestNaNBitPatternPreserved(t *testing.T) {
	// A quiet NaN with a payload: the codec must round-trip the exact bits,
	// not normalize them — bit-identity of snapshots depends on it.
	bits := uint64(0x7ff800000000beef)
	e := NewEncoder()
	e.F64(math.Float64frombits(bits))
	d := NewDecoder(e.Bytes())
	if got := math.Float64bits(d.F64()); got != bits {
		t.Fatalf("NaN bits = %#x, want %#x", got, bits)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder()
		e.Header()
		e.Begin(TagLogger, 1)
		e.Int(3)
		e.F64s([]float64{1, 2, 3})
		e.String("x")
		out := make([]byte, len(e.Bytes()))
		copy(out, e.Bytes())
		return out
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatalf("same state encoded to different bytes")
	}
}

func TestStickyErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // truncated
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", d.Err())
	}
	// Every later read is a zero-value no-op, never a panic.
	if d.U32() != 0 || d.String() != "" || d.Bool() || d.F64() != 0 {
		t.Fatalf("poisoned decoder returned non-zero values")
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("first error not sticky: %v", d.Err())
	}
}

func TestHeaderRejections(t *testing.T) {
	d := NewDecoder([]byte("XXXX\x01\x00"))
	if err := d.Header(); err == nil {
		t.Fatalf("bad magic accepted")
	}
	for _, v := range []uint16{99, Version - 1} {
		e := NewEncoder()
		e.buf = append(e.buf, Magic...)
		e.U16(v)
		d = NewDecoder(e.Bytes())
		err := d.Header()
		if want := fmt.Sprintf("unsupported container version %d (have %d)", v, Version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("container version %d: Header = %v, want an error containing %q", v, err, want)
		}
	}
}

func TestExpectRejections(t *testing.T) {
	e := NewEncoder()
	e.Begin(TagWindow, 1)
	d := NewDecoder(e.Bytes())
	d.Expect(TagLogger, 1)
	if d.Err() == nil {
		t.Fatalf("tag mismatch accepted")
	}

	e = NewEncoder()
	e.Begin(TagWindow, 5)
	d = NewDecoder(e.Bytes())
	d.Expect(TagWindow, 1)
	if d.Err() == nil {
		t.Fatalf("future component version accepted")
	}
}

func TestF64sLengthMismatch(t *testing.T) {
	e := NewEncoder()
	e.F64s([]float64{1, 2})
	d := NewDecoder(e.Bytes())
	dst := make([]float64, 3)
	d.F64s(dst)
	if d.Err() == nil {
		t.Fatalf("length mismatch accepted")
	}
}

func TestOversizedStringRejected(t *testing.T) {
	// A corrupt length prefix far beyond the buffer must fail cleanly
	// without attempting the allocation.
	e := NewEncoder()
	e.U32(1 << 31)
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("oversized string accepted: %q, err %v", s, d.Err())
	}
}

// TestSkipTo pins the decoder's one skip primitive: a forward target
// lands the read position there, and a target behind the read position
// or past the end of the buffer poisons the decoder.
func TestSkipTo(t *testing.T) {
	e := NewEncoder()
	e.F64s([]float64{1, 2, 3})
	e.String("after")

	d := NewDecoder(e.Bytes())
	d.SkipTo(4 + 3*8)
	if got := d.String(); got != "after" {
		t.Fatalf("after skip: %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}

	for _, tc := range []struct {
		name     string
		at, skip int
	}{{"backward", 8, 4}, {"past the end", 0, len(e.Bytes()) + 1}} {
		d := NewDecoder(e.Bytes())
		d.SkipTo(tc.at)
		if d.Err() != nil {
			t.Fatalf("%s: SkipTo(%d) = %v", tc.name, tc.at, d.Err())
		}
		d.SkipTo(tc.skip)
		if d.Err() == nil || d.Offset() != tc.at {
			t.Fatalf("%s: SkipTo(%d) from %d left offset %d, err %v; want a poisoned decoder", tc.name, tc.skip, tc.at, d.Offset(), d.Err())
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.awds")
	if err := WriteFile(path, []byte("v1")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := WriteFile(path, []byte("v2")); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "v2" {
		t.Fatalf("ReadFile = %q, want v2", got)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after atomic writes, want 1", len(entries))
	}
}

// encodeSpilling writes a synthetic snapshot large enough for an encoder
// with a sink to spill many times: components of assorted sizes.
func encodeSpilling(e *Encoder) {
	e.Header()
	payload := make([]float64, 700)
	for i := range payload {
		payload[i] = float64(i) * 0.5
	}
	for c := 0; c < 1200; c++ {
		e.Begin(TagLogger, 1)
		e.String("stream")
		e.F64s(payload[:c%len(payload)])
	}
	e.Begin(TagFleet, 1)
	e.U64(42)
}

// recorder is a sink that keeps every write, so a test can see where an
// encoder spilled.
type recorder struct{ writes [][]byte }

func (r *recorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestEncodeFileMatchesBuffered pins that spilling changes no byte: the
// spills of an encoder with a sink each write more than spillThreshold
// bytes (the last excepted) and concatenate to the buffered encoding, and
// EncodeFile writes that encoding and reports its length.
func TestEncodeFileMatchesBuffered(t *testing.T) {
	want := NewEncoder()
	encodeSpilling(want)

	rec := &recorder{}
	e := &Encoder{w: rec}
	encodeSpilling(e)
	if e.Len() != want.Len() {
		t.Fatalf("Len = %d, buffered encoder has %d", e.Len(), want.Len())
	}
	e.spill()
	if len(rec.writes) < 5 {
		t.Fatalf("%d writes for a %d-byte snapshot; the encoder did not spill", len(rec.writes), want.Len())
	}
	var got []byte
	for i, w := range rec.writes {
		if i < len(rec.writes)-1 && len(w) <= spillThreshold {
			t.Fatalf("spill %d wrote %d bytes, at most the %d-byte threshold", i, len(w), spillThreshold)
		}
		got = append(got, w...)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("spilled bytes differ from the buffered encoding (%d vs %d bytes)", len(got), len(want.Bytes()))
	}

	path := filepath.Join(t.TempDir(), "fleet.awds")
	n, err := EncodeFile(path, func(e *Encoder) error {
		encodeSpilling(e)
		return nil
	})
	if err != nil {
		t.Fatalf("EncodeFile: %v", err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if n != len(got) || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("EncodeFile wrote %d bytes (reported %d), buffered encoding is %d and they differ", len(got), n, want.Len())
	}
}

// TestSpillWriteError pins that a sink write error is kept for EncodeFile
// to report, and that the encoder drops the bytes it cannot write instead
// of buffering the rest of the snapshot.
func TestSpillWriteError(t *testing.T) {
	boom := errors.New("disk full")
	e := &Encoder{w: failWriter{boom}}
	encodeSpilling(e)
	e.spill()
	if !errors.Is(e.err, boom) {
		t.Fatalf("err = %v, want %v", e.err, boom)
	}
	want := NewEncoder()
	encodeSpilling(want)
	if e.Len() != want.Len() || len(e.buf) != 0 {
		t.Fatalf("after a failed sink: Len %d (want %d), %d bytes still buffered", e.Len(), want.Len(), len(e.buf))
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// TestEncodeFileFailureKeepsPrevious pins the failure path of a streamed
// checkpoint: an encode that fails after it has spilled into the
// temporary file returns its error, the previous file is untouched, and
// no temporary file is left behind.
func TestEncodeFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.awds")
	if _, err := EncodeFile(path, func(e *Encoder) error {
		e.Header()
		e.String("previous")
		return nil
	}); err != nil {
		t.Fatalf("EncodeFile: %v", err)
	}
	prev, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	boom := errors.New("encode failed")
	_, err = EncodeFile(path, func(e *Encoder) error {
		encodeSpilling(e)
		if len(e.Bytes()) == e.Len() {
			t.Errorf("encoder never spilled (%d bytes buffered)", e.Len())
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("EncodeFile = %v, want %v", err, boom)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, prev) {
		t.Fatalf("failed EncodeFile changed the previous checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after a failed EncodeFile, want only fleet.awds", names)
	}
}
