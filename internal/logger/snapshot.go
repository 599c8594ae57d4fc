package logger

import (
	"fmt"

	"repro/internal/state"
)

// loggerStateVersion is the component version of the logger's snapshot
// layout (see internal/state for the versioning rules).
const loggerStateVersion = 1

// Snapshot encodes the logger's complete runtime state: the protocol
// counters and every retained entry in ascending step order. Entry values
// are written bit-exactly, so a Restore reproduces the residual history
// the detectors sum over bit-for-bit.
//
// The slab's physical layout (start slot, wrap position) is deliberately
// not part of the state: entries are written logically and re-packed from
// slot 0 on restore. Every read path (Entry, Residual, AddResiduals) visits
// entries in step order, so the physical re-packing is unobservable —
// decisions after a restore are bit-identical to decisions after the
// original layout.
func (l *Logger) Snapshot(enc *state.Encoder) {
	enc.Begin(state.TagLogger, loggerStateVersion)
	enc.Int(l.maxWin)
	enc.Int(l.n)
	enc.I64(int64(l.nextStep))
	enc.U32(uint32(l.count))
	enc.I64(int64(l.released))
	enc.Bool(l.count > 0) // has a prediction input
	for step := l.nextStep - l.count; step < l.nextStep; step++ {
		off, _ := l.offset(step)
		enc.I64(int64(step))
		enc.F64s(l.estimateAt(off))
		enc.F64s(l.residualAt(off))
	}
}

// Restore replaces the logger's runtime state with a snapshot taken from a
// logger of identical configuration (same plant dimensions, same maximum
// window). Structural mismatches and corrupt snapshots are returned as
// errors with the logger left in an unspecified but memory-safe state;
// callers restore into freshly constructed pipelines and discard them on
// failure.
func (l *Logger) Restore(dec *state.Decoder) error {
	dec.Expect(state.TagLogger, loggerStateVersion)
	maxWin := dec.Int()
	dim := dec.Int()
	nextStep := dec.I64()
	count := int(dec.U32())
	released := dec.I64()
	hasPrev := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if maxWin != l.maxWin {
		return fmt.Errorf("logger: snapshot max window %d, want %d", maxWin, l.maxWin)
	}
	if dim != l.n {
		return fmt.Errorf("logger: snapshot state dimension %d, want %d", dim, l.n)
	}
	if count < 0 || count > l.slots() {
		return fmt.Errorf("logger: snapshot retains %d entries, ring capacity %d", count, l.slots())
	}
	if nextStep < int64(count) || released != nextStep-int64(count) {
		return fmt.Errorf("logger: inconsistent snapshot counters (observed %d, retained %d, released %d)",
			nextStep, count, released)
	}
	if hasPrev != (nextStep > 0) || (count == 0 && nextStep > 0) {
		return fmt.Errorf("logger: inconsistent snapshot prediction state")
	}
	l.start = 0
	l.count = count
	l.nextStep = int(nextStep)
	l.released = int(released)
	first := l.nextStep - count
	for i := 0; i < count; i++ {
		off := i * 2 * l.n
		step := dec.I64()
		dec.F64s(l.estimateAt(off))
		dec.F64s(l.residualAt(off))
		if dec.Err() == nil && int(step) != first+i {
			return fmt.Errorf("logger: snapshot entry %d has step %d, want %d", i, step, first+i)
		}
	}
	return dec.Err()
}
