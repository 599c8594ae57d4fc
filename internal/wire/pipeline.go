package wire

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/state"
)

// Pipeline is the client's asynchronous ingest mode: Ingest stages a
// sample, as a one-item MsgIngestBatch frame, and returns without waiting
// for its decision, keeping up to window samples in flight on the
// connection; a reader goroutine delivers every decision strictly in
// submission order through the deliver callback. The server handles
// frames in arrival order and answers in that same order (see the package
// doc), so ordered delivery needs no sequence numbers — the k-th response
// on the wire is the k-th staged sample's decision.
//
// While a Pipeline is open it owns the connection: the synchronous Client
// methods must not be called until Close returns. A Pipeline is not safe
// for concurrent use by multiple goroutines (the deliver callback runs on
// the reader goroutine, concurrently with Ingest calls — it must not call
// back into the Pipeline or Client).
type Pipeline struct {
	c       *Client
	deliver func(handle uint64, d core.Decision, err error)

	sem     chan struct{} // one token per in-flight sample
	pending chan uint64   // FIFO of in-flight sample handles
	done    chan struct{} // closed when the reader goroutine exits

	mu  sync.Mutex
	err error // first transport failure; sticky
}

// DefaultPipelineWindow is the in-flight window Client.Pipeline uses when
// given none: how many samples a pipelined client runs ahead of their
// decisions.
const DefaultPipelineWindow = 256

// Pipeline switches the connection into pipelined ingest mode with the
// given in-flight window (<= 0 uses DefaultPipelineWindow). The server
// queues no responses: it handles one frame at a time, so the part of a
// window it has not read yet waits in the socket buffers.
// deliver receives every sample's decision in submission order, on the
// reader goroutine. Pipeline cannot fail; its error result is always nil.
func (c *Client) Pipeline(window int, deliver func(handle uint64, d core.Decision, err error)) (*Pipeline, error) {
	if window <= 0 {
		window = DefaultPipelineWindow
	}
	p := &Pipeline{
		c:       c,
		deliver: deliver,
		sem:     make(chan struct{}, window),
		pending: make(chan uint64, window),
		done:    make(chan struct{}),
	}
	go p.readLoop()
	return p, nil
}

// Ingest stages one sample. It blocks only when the in-flight window is
// full, in which case it first flushes the staged frames (the decisions
// being waited on may still sit in the client's write buffer — blocking
// without flushing would deadlock) and then waits for a window slot.
func (p *Pipeline) Ingest(handle uint64, estimate, appliedU []float64) error {
	if err := p.Err(); err != nil {
		return err
	}
	select {
	case p.sem <- struct{}{}:
	default:
		if err := p.c.bw.Flush(); err != nil {
			p.fail(err)
			return err
		}
		p.sem <- struct{}{}
	}
	c := p.c
	c.stageOne(handle, estimate, appliedU)
	if err := writeFrame(c.bw, MsgIngestBatch, c.enc.Bytes()); err != nil {
		p.fail(err)
		<-p.sem // the sample never became pending; return its token
		return err
	}
	p.pending <- handle // never blocks: capacity matches the window
	return nil
}

// Flush pushes every staged frame to the server and waits until every
// in-flight sample's decision has been delivered. It returns the sticky
// transport error, if any.
func (p *Pipeline) Flush() error {
	if err := p.c.bw.Flush(); err != nil {
		p.fail(err)
	}
	// Holding every window token means no sample is in flight.
	for i := 0; i < cap(p.sem); i++ {
		p.sem <- struct{}{}
	}
	for i := 0; i < cap(p.sem); i++ {
		<-p.sem
	}
	return p.Err()
}

// Close flushes, waits out the in-flight window, and stops the reader
// goroutine, returning the connection to synchronous use.
func (p *Pipeline) Close() error {
	err := p.Flush()
	close(p.pending)
	<-p.done
	return err
}

// Err reports the sticky transport error, if any.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// fail records the first transport error and closes the connection so the
// reader goroutine (possibly blocked mid-read) unblocks; every in-flight
// and subsequent sample is then delivered with the error.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	first := p.err == nil
	if first {
		p.err = err
	}
	p.mu.Unlock()
	if first {
		p.c.conn.Close()
	}
}

// readLoop delivers one response per pending sample, in order. Transport
// failures are sticky: the remaining pending samples drain with the error
// so no Ingest or Flush is left waiting on a window token. A per-item
// error or a MsgError response fails only its own sample (the framing is
// intact), so neither poisons the connection.
func (p *Pipeline) readLoop() {
	defer close(p.done)
	var rbuf []byte
	var dec state.Decoder
	for h := range p.pending {
		var res [1]IngestResult
		if err := p.Err(); err != nil {
			res[0].Err = err
		} else {
			rtyp, payload, err := readFrameInto(p.c.br, &rbuf)
			dec.Reset(payload)
			switch {
			case err != nil:
				p.fail(err)
				res[0].Err = err
			case rtyp == MsgError:
				msg := dec.String()
				if dec.Err() != nil {
					msg = "malformed error response"
				}
				res[0].Err = errors.New(msg)
			case rtyp != MsgDecisionBatch:
				err := fmt.Errorf("wire: pipelined ingest got response type 0x%02x", rtyp)
				p.fail(err)
				res[0].Err = err
			default:
				if err := decodeDecisionBatch(&dec, res[:]); err != nil {
					res[0] = IngestResult{Err: err}
				}
			}
		}
		p.deliver(h, res[0].Decision, res[0].Err)
		<-p.sem
	}
}
