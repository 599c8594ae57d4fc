package fleet

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/state"
)

// fleetStateVersion is the component version of the engine's snapshot
// layout (see internal/state for the versioning rules). Version 2 dropped
// the shard certificate section.
const fleetStateVersion = 2

// MakeStream constructs the detector and decision callback for a stream ID
// found in a snapshot. Engine.Restore calls it once per recorded stream;
// the returned system must be freshly constructed with the same
// configuration the stream had when the snapshot was taken (the per-
// component Restore validation catches structural drift, but semantic
// parameters like thresholds are the caller's obligation — they are part
// of the stream's identity, not its state). Restore calls it with the
// engine's registration lock held, so it must not call into the engine.
type MakeStream func(id string) (*core.System, func(core.Decision, error), error)

// Snapshot encodes the decision state of every registered stream as one
// deterministic blob: streams are written in ascending ID order regardless
// of registration or scheduling history, and the shard-shared deadline
// certificates are left out (no decision reads them, DESIGN.md §10), so
// the bytes are a function of the samples each stream has ingested —
// independent of shard layout, batch formation and worker count.
//
// Snapshot quiesces the fleet itself: it acquires every stream's sample
// token before encoding and releases them after, so each stream's state is
// captured between decisions, never mid-step. Ingest calls issued during a
// snapshot simply block until it completes — the engine's ordinary
// backpressure — and no decision is lost or duplicated. Registration is
// excluded too (AddStream blocks for the duration), making the snapshot a
// consistent cut of the whole fleet.
func (e *Engine) Snapshot(enc *state.Encoder) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })
	// Quiesce: hold every token for the duration of the encode. A token
	// held elsewhere belongs to an ingest call that is filling its slot or
	// to a sample pending in a shard, and whoever owns that shard steps it
	// and releases the token without waiting on any token: a submitter
	// keeps only the claim its last sample makes (DESIGN.md §8). So each
	// Lock below returns once that sample is decided, and a concurrent
	// Snapshot takes the tokens in the same ID order.
	for _, s := range streams {
		s.tok.Lock()
	}
	defer func() {
		for _, s := range streams {
			s.tok.Unlock()
		}
	}()

	enc.Begin(state.TagFleet, fleetStateVersion)
	enc.U32(uint32(len(streams)))
	for _, s := range streams {
		enc.String(s.id)
		enc.U64(s.steps)
		//awdlint:allow lockflow -- encoding under e.mu and the stream tokens IS the consistency cut: the quiesce makes the snapshot a between-decisions capture of the whole fleet
		s.det.Snapshot(enc)
	}
	return nil
}

// Restore rebuilds a fleet from a snapshot into an empty engine: for each
// recorded stream it asks make for a freshly constructed detector,
// registers it (in snapshot order, so shard formation is deterministic),
// and then restores the stream's runtime state into it. The shard
// certificates start cold: each one's first query runs a full scan.
//
// Restore must run before any ingest; it fails on an engine that already
// has streams. It holds the registration lock throughout, so no caller
// sees a half-restored fleet, and it is all-or-nothing: on any error it
// drops every stream it registered, leaving the engine empty for
// AddStream or another Restore. After a successful restore every stream
// continues its decision sequence bit-identically to the engine the
// snapshot was taken from.
func (e *Engine) Restore(dec *state.Decoder, make MakeStream) (err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if len(e.streams) != 0 {
		return fmt.Errorf("fleet: restore into an engine with %d streams", len(e.streams))
	}
	defer func() {
		if err != nil {
			e.dropAll()
		}
	}()
	dec.Expect(state.TagFleet, fleetStateVersion)
	n := dec.U32()
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		id := dec.String()
		steps := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		det, onDecision, err := make(id)
		if err != nil {
			return fmt.Errorf("fleet: restore stream %q: %w", id, err)
		}
		h, err := e.addStream(id, det, onDecision)
		if err != nil {
			return fmt.Errorf("fleet: restore stream %q: %w", id, err)
		}
		//awdlint:allow lockflow -- restoring under the registration write lock is what makes Restore all-or-nothing; no stream is reachable by ingest yet
		if err := det.Restore(dec); err != nil {
			return fmt.Errorf("fleet: restore stream %q: %w", id, err)
		}
		h.steps = steps
	}
	return dec.Err()
}
