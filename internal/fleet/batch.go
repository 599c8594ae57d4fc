package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
)

// BatchItem is one sample of a batched submit: the target stream plus the
// same (estimate, appliedU) pair Stream.Submit takes. A nil Stream yields
// ErrUnknownStream for that item — the wire server resolves handles under
// its own lock and leaves unknowns nil rather than aborting the batch.
type BatchItem struct {
	Stream   *Stream
	Estimate mat.Vec
	AppliedU mat.Vec // nil means zero input, as in Stream.Submit
}

// BatchResult is one sample's outcome: the decision, or the per-item error
// (dimension mismatch, unknown stream, engine closed).
type BatchResult struct {
	Decision core.Decision
	Err      error
}

// Batcher is the batched ingest seam: it submits many samples in one call,
// letting the engine's shards step them as batches instead of one blocking
// Submit round trip per sample. A Batcher owns reusable scratch and is NOT
// safe for concurrent use — open one per connection or worker (the engine
// it came from multiplexes).
type Batcher struct {
	eng  *Engine
	seen map[*Stream]struct{} // wave membership, reused across calls; made on first use
	w    waiter               // each wave's completion signal
}

// NewBatcher returns a batcher over this engine.
func (e *Engine) NewBatcher() *Batcher {
	b := &Batcher{eng: e}
	b.w.arm()
	return b
}

// Submit ingests every item and fills out (which must have the same
// length) with the per-item decisions. Per-stream sample order is the item
// order, and each sample is stepped exactly as Stream.Submit would step it,
// so the decision sequence every stream sees is bit-identical to serial
// submission — the wire differential tests pin this across plants and
// attacks. The call returns once every item is decided; the only non-nil
// return is a slice-length mismatch, everything per-item lands in out.
//
// Items are admitted in waves within which each stream appears at most
// once: a stream's single-sample ingest token admits one outstanding
// sample, so a second sample for the same stream must wait until the
// first is decided. Waves preserve order (duplicates always land in a
// later wave than their predecessor) while letting every distinct stream
// in the batch be in flight at once — which is what fills the shards'
// batched predictions. Each decision lands straight in its item's out
// cell; the call waits once per wave, for all of them.
//
// A shard a wave's sample finds idle is claimed and pushed onto the run
// queue for the workers, so a multi-shard wave runs in parallel — except
// the shard the wave's last sample claims, which the call steps on its own
// goroutine. A one-item batch therefore never touches the run queue or
// waits for a worker. A shard some other goroutine already owns is stepped
// by that owner. Post callbacks of streams in a shard stepped here run on
// the calling goroutine.
func (b *Batcher) Submit(items []BatchItem, out []BatchResult) error {
	if len(out) != len(items) {
		return fmt.Errorf("fleet: batch results length %d, want %d", len(out), len(items))
	}
	w := &b.w
	for start := 0; start < len(items); {
		end := b.waveEnd(items, start)
		// Enqueue the wave: every stream's slot fills and its shard wakes
		// before anything blocks on a decision. The last sample's claim is
		// stepped here once nothing is left to enqueue, so the call never
		// waits on a token while it owns a shard.
		var last *shard
		for i := start; i < end; i++ {
			it := &items[i]
			out[i] = BatchResult{}
			switch {
			case it.Stream == nil:
				out[i].Err = ErrUnknownStream
			case it.Stream.eng != b.eng:
				out[i].Err = fmt.Errorf("fleet: stream %q belongs to a different engine", it.Stream.id)
			default:
				if err := it.Stream.validate(it.Estimate, it.AppliedU); err != nil {
					out[i].Err = err
				} else if claimed, err := it.Stream.enqueue(it.Estimate, it.AppliedU, w, &out[i]); err != nil {
					out[i].Err = err
				} else if claimed && i == end-1 {
					last = it.Stream.sh
				} else if claimed {
					b.eng.runq.push(it.Stream.sh)
				}
			}
		}
		if last != nil {
			b.eng.stepClaimed(last)
		}
		// Wait for the wave; an item that failed to enqueue has its error
		// already and nothing in flight.
		w.wait()
		start = end
	}
	return nil
}

// waveEnd returns the end of the wave that begins at items[start]: the
// longest run in which no stream appears twice. A single remaining item
// cannot repeat a stream, so a batch of one never touches the membership
// map.
func (b *Batcher) waveEnd(items []BatchItem, start int) int {
	if len(items)-start == 1 {
		return len(items)
	}
	if b.seen == nil {
		b.seen = make(map[*Stream]struct{})
	}
	clear(b.seen)
	end := start
	for ; end < len(items); end++ {
		s := items[end].Stream
		if s == nil {
			continue
		}
		if _, dup := b.seen[s]; dup {
			break
		}
		b.seen[s] = struct{}{}
	}
	return end
}
