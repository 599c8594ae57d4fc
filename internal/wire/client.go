package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/state"
)

// Client speaks the binary protocol over one TCP connection. It is the
// protocol's reference implementation and what cmd/awdserve's smoke
// tooling and the crash-replay CI step use. A Client is not safe for
// concurrent use; open one per goroutine (the server multiplexes).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  *state.Encoder // reused per request to keep ingest allocation-light
	dec  state.Decoder  // reused per response
	rbuf []byte         // reused response frame buffer
}

// Dial connects to a wire server and performs the hello handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		enc:  state.NewEncoder(),
	}
	c.enc.U16(ProtocolVersion)
	c.enc.String("wire-client")
	// A server that accepts the hello speaks this version; the response's
	// server name and version are diagnostic only.
	if _, _, err := c.roundTrip(MsgHello); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// roundTrip sends the staged request payload and reads one response,
// translating MsgError into a Go error. The returned decoder reads the
// response payload and is valid until the next request.
func (c *Client) roundTrip(typ byte) (byte, *state.Decoder, error) {
	if err := writeFrame(c.bw, typ, c.enc.Bytes()); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	rtyp, payload, err := readFrameInto(c.br, &c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.dec.Reset(payload)
	if rtyp == MsgError {
		msg := c.dec.String()
		if c.dec.Err() != nil {
			msg = "malformed error response"
		}
		return rtyp, nil, errors.New(msg)
	}
	return rtyp, &c.dec, nil
}

// reset stages a fresh request payload.
func (c *Client) reset() { c.enc.Reset() }

// stageOne stages a one-item MsgIngestBatch payload in the client's
// encoder: the single-sample calls send a batch of one.
func (c *Client) stageOne(handle uint64, estimate, appliedU []float64) {
	c.reset()
	c.enc.U32(1)
	appendIngestItem(c.enc, handle, estimate, appliedU)
}

// Open registers (or re-attaches to, after a server restore) the stream
// tenant/stream and returns its ingest handle.
func (c *Client) Open(tenant, stream, model, strategy string, fixedWin int) (uint64, error) {
	c.reset()
	c.enc.String(tenant)
	c.enc.String(stream)
	c.enc.String(model)
	c.enc.String(strategy)
	c.enc.Int(fixedWin)
	rtyp, dec, err := c.roundTrip(MsgOpen)
	if err != nil {
		return 0, err
	}
	if rtyp != MsgOpened {
		return 0, fmt.Errorf("wire: open got response type 0x%02x", rtyp)
	}
	h := dec.U64()
	return h, dec.Err()
}

// Ingest feeds one sample, as a batch of one, and returns the stream's
// decision; the sample's per-item error is returned as the error.
func (c *Client) Ingest(handle uint64, estimate, appliedU []float64) (core.Decision, error) {
	c.stageOne(handle, estimate, appliedU)
	var out [1]IngestResult
	if err := c.ingestBatch(out[:]); err != nil {
		return core.Decision{}, err
	}
	return out[0].Decision, out[0].Err
}

// IngestResult is one sample's outcome from a batched or pipelined
// ingest: the decision, or the per-sample server error.
type IngestResult struct {
	Decision core.Decision
	Err      error
}

// IngestBatch feeds one sample per handle in a single MsgIngestBatch frame
// and fills out with the per-sample decisions, amortizing the network
// round trip and the server's framing work across the whole batch. The
// four slices must have equal length. Per-sample failures (unknown handle,
// dimension mismatch) land in out[i].Err; the returned error is reserved
// for transport and whole-batch protocol failures.
func (c *Client) IngestBatch(handles []uint64, estimates, inputs [][]float64, out []IngestResult) error {
	if len(estimates) != len(handles) || len(inputs) != len(handles) || len(out) != len(handles) {
		return fmt.Errorf("wire: batch slice lengths %d/%d/%d/%d differ",
			len(handles), len(estimates), len(inputs), len(out))
	}
	c.reset()
	appendIngestBatch(c.enc, handles, estimates, inputs)
	return c.ingestBatch(out)
}

// ingestBatch round-trips the staged MsgIngestBatch payload and decodes
// its len(out) per-sample results.
func (c *Client) ingestBatch(out []IngestResult) error {
	rtyp, dec, err := c.roundTrip(MsgIngestBatch)
	if err != nil {
		return err
	}
	if rtyp != MsgDecisionBatch {
		return fmt.Errorf("wire: batch ingest got response type 0x%02x", rtyp)
	}
	return decodeDecisionBatch(dec, out)
}

// Checkpoint asks the server to write a whole-fleet snapshot; name "" uses
// DefaultCheckpointName. The returned detail names the written path.
func (c *Client) Checkpoint(name string) (string, error) {
	c.reset()
	c.enc.String(name)
	return c.okDetail(MsgCheckpoint)
}

// Drain stops the server admitting ingest, leaving the fleet quiescent.
func (c *Client) Drain() error {
	c.reset()
	_, err := c.okDetail(MsgDrain)
	return err
}

// Restore asks the server to load a checkpoint; name "" uses
// DefaultCheckpointName.
func (c *Client) Restore(name string) (string, error) {
	c.reset()
	c.enc.String(name)
	return c.okDetail(MsgRestore)
}

// okDetail round-trips a request whose response is MsgOK plus a detail
// string.
func (c *Client) okDetail(typ byte) (string, error) {
	rtyp, dec, err := c.roundTrip(typ)
	if err != nil {
		return "", err
	}
	if rtyp != MsgOK {
		return "", fmt.Errorf("wire: got response type 0x%02x, want OK", rtyp)
	}
	detail := dec.String()
	return detail, dec.Err()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
