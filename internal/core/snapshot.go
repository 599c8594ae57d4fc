package core

import (
	"fmt"

	"repro/internal/state"
)

// systemStateVersion is the component version of core.System's snapshot
// layout (see internal/state for the versioning rules). Version 2 dropped
// the adaptive mode's deadline estimator section.
const systemStateVersion = 2

// Snapshot encodes the system's decision state: the detection strategy
// tag (for structural validation), the logger ring, and the active
// detector's state. Configuration (plant matrices, thresholds, windows,
// safe set) is deliberately not serialized: a snapshot restores into a
// freshly constructed System built from the same Config, and every
// component validates its structural parameters against the receiver so a
// config drift surfaces as an error instead of silent corruption. Neither
// is the deadline estimator's warm start: no decision reads it (DESIGN.md
// §7), so a restored system starts cold and its first adaptive query runs
// one full scan.
//
// Snapshot must only be called while the system is quiescent (no Step in
// flight); the fleet engine guarantees this by holding every stream's
// sample token across a fleet snapshot.
func (s *System) Snapshot(enc *state.Encoder) {
	enc.Begin(state.TagSystem, systemStateVersion)
	enc.U8(uint8(s.mode))
	s.log.Snapshot(enc)
	switch s.mode {
	case modeAdaptive:
		s.adaptive.Snapshot(enc)
	case modeFixed:
		s.fixed.Snapshot(enc)
	case modeCUSUM:
		s.cusum.Snapshot(enc)
	case modeEWMA:
		s.ewma.Snapshot(enc)
	}
}

// Restore replaces the system's runtime state with a snapshot taken from a
// system of identical configuration. After a successful restore the
// decision stream continues bit-identically to the system the snapshot was
// taken from: the logger ring, the window detectors' incremental sums, the
// CUSUM/EWMA statistics, and the adaptive window size all resume the exact
// float trajectory of the original (the restore==never-crashed
// differential tests pin this on every bundled plant under every attack).
//
// On error the system is left in an unspecified but memory-safe state;
// callers restore into fresh systems and discard them on failure.
func (s *System) Restore(dec *state.Decoder) error {
	dec.Expect(state.TagSystem, systemStateVersion)
	m := dec.U8()
	if err := dec.Err(); err != nil {
		return err
	}
	if mode(m) != s.mode {
		return fmt.Errorf("core: snapshot strategy %v, want %v", mode(m), s.mode)
	}
	if err := s.log.Restore(dec); err != nil {
		return err
	}
	switch s.mode {
	case modeAdaptive:
		return s.adaptive.Restore(dec)
	case modeFixed:
		return s.fixed.Restore(dec)
	case modeCUSUM:
		return s.cusum.Restore(dec)
	case modeEWMA:
		return s.ewma.Restore(dec)
	}
	return nil
}
