package wire

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/state"
)

// serverStateVersion is the component version of the server's checkpoint
// spec section (the 'V' block in front of the fleet engine's 'Z' block).
const serverStateVersion = 1

// DefaultCheckpointName is the checkpoint filename used when a checkpoint
// request does not name one.
const DefaultCheckpointName = "fleet.awds"

// Config describes one fleet server.
type Config struct {
	// CheckpointDir is where Checkpoint writes and Restore reads whole-
	// fleet snapshots. Empty disables both RPCs.
	CheckpointDir string
	// MaxStreamsPerTenant caps the streams each tenant may hold open;
	// <= 0 means unlimited.
	MaxStreamsPerTenant int
	// Workers passes through to fleet.Config.
	Workers int
	// Observer receives fleet telemetry; nil disables instrumentation.
	Observer *obs.Observer
}

// streamSpec is everything needed to reconstruct a stream's detector: its
// identity plus the semantic configuration the state codec deliberately
// does not carry (see fleet.MakeStream).
type streamSpec struct {
	tenant, stream string
	model          string
	strategy       sim.Strategy
	fixedWin       int
}

// minSpecBytes is the smallest encoding of a streamSpec in a checkpoint:
// four empty length-prefixed strings and an Int.
const minSpecBytes = 4*4 + 8

func (sp streamSpec) id() string { return sp.tenant + "/" + sp.stream }

// detector builds the stream's detector over the shared registry instance
// of its model, so every stream of a plant reuses one set of reachability
// tables (reach.Shared keys on the plant pointer).
func (sp streamSpec) detector(o *obs.Observer) (*core.System, error) {
	m := models.ByName(sp.model)
	if m == nil {
		return nil, fmt.Errorf("wire: unknown model %q (valid: %s)", sp.model, strings.Join(models.Names(), ", "))
	}
	return sim.Detector(sim.Config{Model: m, Strategy: sp.strategy, FixedWin: sp.fixedWin, Observer: o})
}

// parseStrategy maps the wire's strategy names back onto sim.Strategy;
// the names are sim.Strategy.String()'s, which are part of the protocol.
func parseStrategy(s string) (sim.Strategy, error) {
	for _, st := range []sim.Strategy{sim.Adaptive, sim.FixedWindow, sim.CUSUMBaseline, sim.EWMABaseline} {
		if s == st.String() {
			return st, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown strategy %q", s)
}

// Server hosts one fleet engine behind the binary TCP protocol and the
// HTTP/JSON fallback. Streams live in per-tenant namespaces (the fleet
// stream ID is "tenant/stream"), with an optional per-tenant open-stream
// quota. Checkpoint, Drain, and Restore manage whole-fleet snapshots.
type Server struct {
	cfg Config
	eng *fleet.Engine

	// ingestMu serializes checkpoint/drain/restore (writers) against
	// ingest and Open (readers): a checkpoint takes the write side so the
	// spec registry and the engine snapshot form one consistent cut, while
	// steady-state ingests share the read side and never contend with
	// each other.
	ingestMu sync.RWMutex

	mu       sync.Mutex // guards the registries below
	specs    map[string]streamSpec
	handles  []*fleet.Stream // handle h -> engine stream, at h-1
	tenants  map[string]int  // tenant -> open stream count
	draining bool
	// conns holds the open binary-protocol connections, so Close can end
	// them; nil once Close has begun, which refuses later accepts and
	// makes a second Close a no-op.
	conns map[net.Conn]struct{}

	// batchers recycles the Batchers of HTTP ingest requests.
	batchers sync.Pool

	ln      net.Listener
	serving sync.WaitGroup // the accept loop and every connection goroutine
	httpSrv *httpServer
}

// errDraining refuses ingest, Open and Restore once Drain has begun.
var errDraining = errors.New("wire: server is draining")

// NewServer returns a server over a fresh fleet engine. Call Start (or
// StartHTTP) to accept connections and Close to shut down.
func NewServer(cfg Config) *Server {
	return &Server{
		cfg: cfg,
		eng: fleet.New(fleet.Config{
			Workers:  cfg.Workers,
			Observer: cfg.Observer,
		}),
		specs:   make(map[string]streamSpec),
		tenants: make(map[string]int),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Engine exposes the wrapped fleet engine (read-only use: stats, tests).
func (s *Server) Engine() *fleet.Engine { return s.eng }

// Open registers (or re-attaches to) the stream tenant/stream and returns
// an ingest handle. Open is idempotent on identical specs: after a server
// restart plus Restore the streams already exist in the engine, and a
// reconnecting client's Open re-binds a fresh handle to the restored
// stream instead of failing — the checkpoint lifecycle depends on this.
// A spec that conflicts with the live stream's is an error, as is
// exceeding the tenant's stream quota.
func (s *Server) Open(tenant, stream, model, strategy string, fixedWin int) (uint64, error) {
	if tenant == "" || strings.Contains(tenant, "/") {
		return 0, fmt.Errorf("wire: invalid tenant %q", tenant)
	}
	if stream == "" {
		return 0, errors.New("wire: empty stream name")
	}
	strat, err := parseStrategy(strategy)
	if err != nil {
		return 0, err
	}
	spec := streamSpec{tenant: tenant, stream: stream, model: model, strategy: strat, fixedWin: fixedWin}

	// Registration is a reader of ingestMu like ingest: a checkpoint's
	// write hold then sees every stream either in both the spec registry
	// and the engine or in neither.
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, errDraining
	}
	if have, ok := s.specs[spec.id()]; ok {
		if have != spec {
			return 0, fmt.Errorf("wire: stream %s already open with a different spec", spec.id())
		}
		st, ok := s.eng.Stream(spec.id())
		if !ok {
			return 0, fmt.Errorf("wire: stream %s has a spec but no engine state", spec.id())
		}
		return s.bindHandle(st), nil
	}
	if q := s.cfg.MaxStreamsPerTenant; q > 0 && s.tenants[tenant] >= q {
		return 0, fmt.Errorf("wire: tenant %q at stream quota %d", tenant, q)
	}
	det, err := spec.detector(s.cfg.Observer)
	if err != nil {
		return 0, err
	}
	st, err := s.eng.AddStream(spec.id(), det, nil)
	if err != nil {
		return 0, err
	}
	s.specs[spec.id()] = spec
	s.tenants[tenant]++
	return s.bindHandle(st), nil
}

// bindHandle allocates a fresh handle for an open stream. Handles count
// up from 1 and are never unbound. Caller holds mu.
func (s *Server) bindHandle(st *fleet.Stream) uint64 {
	s.handles = append(s.handles, st)
	return uint64(len(s.handles))
}

// stream resolves a handle, or returns nil for 0 and any handle never
// bound. Caller holds mu.
func (s *Server) stream(h uint64) *fleet.Stream {
	if h == 0 || h > uint64(len(s.handles)) {
		return nil
	}
	return s.handles[h-1]
}

// Ingest feeds one sample to the stream behind handle and returns its
// decision synchronously, with IngestBatch's locking and errors for a
// batch of one.
func (s *Server) Ingest(handle uint64, estimate, appliedU []float64) (core.Decision, error) {
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	s.mu.Lock()
	draining := s.draining
	st := s.stream(handle)
	s.mu.Unlock()
	if draining {
		return core.Decision{}, errDraining
	}
	if st == nil {
		return core.Decision{}, fleet.ErrUnknownStream
	}
	return st.Submit(estimate, appliedU)
}

// batcher returns a pooled Batcher for a request that has no connection
// to keep one; put it back in s.batchers once its Submit has returned.
func (s *Server) batcher() *fleet.Batcher {
	if b, ok := s.batchers.Get().(*fleet.Batcher); ok {
		return b
	}
	return s.eng.NewBatcher()
}

// IngestBatch feeds one sample per item through the fleet's batched submit
// seam: handles are resolved under the registry lock in one pass (unknown
// handles leave their item's Stream nil and fail per-item), then every
// sample is admitted in one Batcher.Submit call so distinct streams step
// as shard batches instead of one blocking round trip each. The whole
// batch shares one ingestMu read hold, so a checkpoint quiesces at batch
// granularity — it can never cut a batch in half. items[i].Estimate and
// items[i].AppliedU must be filled by the caller; out must match len.
func (s *Server) IngestBatch(bt *fleet.Batcher, handles []uint64, items []fleet.BatchItem, out []fleet.BatchResult) error {
	if len(items) != len(handles) || len(out) != len(handles) {
		return fmt.Errorf("wire: batch slice lengths %d/%d/%d differ", len(handles), len(items), len(out))
	}
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	s.mu.Lock()
	draining := s.draining
	for i, h := range handles {
		items[i].Stream = s.stream(h)
	}
	s.mu.Unlock()
	if draining {
		return errDraining
	}
	return bt.Submit(items, out)
}

// checkpointPath resolves a checkpoint name from a client to its file:
// "" means DefaultCheckpointName, and any other name must be one plain
// file name in the checkpoint directory — no separators, and neither "."
// nor "..", which name the directory itself and its parent.
func (s *Server) checkpointPath(name string) (string, error) {
	if s.cfg.CheckpointDir == "" {
		return "", errors.New("wire: server has no checkpoint directory")
	}
	if name == "" {
		name = DefaultCheckpointName
	}
	if name == "." || name == ".." || name != filepath.Base(name) {
		return "", fmt.Errorf("wire: checkpoint name %q is not a file name in the checkpoint directory", name)
	}
	return filepath.Join(s.cfg.CheckpointDir, name), nil
}

// Checkpoint quiesces ingest and writes the whole fleet — stream specs
// plus every stream's runtime state — to name (default
// DefaultCheckpointName) under the checkpoint directory, atomically.
// The snapshot streams into the file as it is encoded (state.EncodeFile),
// so its size does not set the server's memory. It returns the written
// path and the snapshot size in bytes.
func (s *Server) Checkpoint(name string) (string, int, error) {
	path, err := s.checkpointPath(name)
	if err != nil {
		return "", 0, err
	}
	// Holding ingestMu for the encode and the write is the quiesce barrier
	// that makes the checkpoint a consistent cut: ingest and Open block,
	// nothing is mid-decision.
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	s.mu.Lock()
	specs := make([]streamSpec, 0, len(s.specs))
	for _, sp := range s.specs {
		specs = append(specs, sp)
	}
	s.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].id() < specs[j].id() })
	n, err := state.EncodeFile(path, func(enc *state.Encoder) error {
		enc.Header()
		enc.Begin(state.TagServer, serverStateVersion)
		enc.U32(uint32(len(specs)))
		for _, sp := range specs {
			enc.String(sp.tenant)
			enc.String(sp.stream)
			enc.String(sp.model)
			enc.String(sp.strategy.String())
			enc.Int(sp.fixedWin)
		}
		return s.eng.Snapshot(enc)
	})
	if err != nil {
		return "", 0, err
	}
	return path, n, nil
}

// Drain stops admitting ingest and new streams, waits for in-flight
// ingests to finish, and leaves the fleet quiescent — the state a final
// Checkpoint before shutdown wants. Draining is sticky; a drained server
// only serves Checkpoint and stats.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Taking the write side waits out every ingest that entered before the
	// flag flipped.
	s.ingestMu.Lock()
	s.ingestMu.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
}

// Restore loads a checkpoint written by Checkpoint into this server,
// which must not have any open streams yet: it rebuilds each recorded
// stream's detector from its spec and restores the fleet's runtime state,
// after which reconnecting clients re-attach via idempotent Opens and the
// decision streams continue bit-identically to the checkpointed fleet.
// Restore is all-or-nothing: a checkpoint that fails to decode leaves the
// server empty, ready for Open or another Restore.
func (s *Server) Restore(name string) (int, error) {
	path, err := s.checkpointPath(name)
	if err != nil {
		return 0, err
	}
	blob, err := state.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.specs) != 0 {
		return 0, fmt.Errorf("wire: restore into a server with %d streams", len(s.specs))
	}
	if s.draining {
		return 0, errDraining
	}

	dec := state.NewDecoder(blob)
	if err := dec.Header(); err != nil {
		return 0, err
	}
	dec.Expect(state.TagServer, serverStateVersion)
	n := dec.U32()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	// The count is untrusted file content: size the map by the specs the
	// remaining bytes can actually hold, so a corrupt count fails the
	// decode below instead of allocating for four billion entries.
	specs := make(map[string]streamSpec, min(int(n), dec.Remaining()/minSpecBytes))
	for i := 0; i < int(n); i++ {
		var sp streamSpec
		var strategy string
		sp.tenant = dec.String()
		sp.stream = dec.String()
		sp.model = dec.String()
		strategy = dec.String()
		sp.fixedWin = dec.Int()
		if err := dec.Err(); err != nil {
			return 0, err
		}
		if sp.strategy, err = parseStrategy(strategy); err != nil {
			return 0, err
		}
		specs[sp.id()] = sp
	}
	//awdlint:allow lockflow -- restore must rebuild the fleet before any ingest can run; holding ingestMu+mu for the decode is the barrier that guarantees it
	err = s.eng.Restore(dec, func(id string) (*core.System, func(core.Decision, error), error) {
		sp, ok := specs[id]
		if !ok {
			return nil, nil, fmt.Errorf("wire: checkpoint stream %q has no spec", id)
		}
		det, err := sp.detector(s.cfg.Observer)
		return det, nil, err
	})
	if err != nil {
		return 0, err
	}
	for id, sp := range specs {
		s.specs[id] = sp
		s.tenants[sp.tenant]++
	}
	return len(specs), nil
}

// Stats is the server's live state summary, served on GET /v1/stats.
type Stats struct {
	Streams  int            `json:"streams"`
	Tenants  map[string]int `json:"tenants"`
	Draining bool           `json:"draining"`
}

// Stats snapshots the server's stream registry.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	tenants := make(map[string]int, len(s.tenants))
	for k, v := range s.tenants {
		tenants[k] = v
	}
	return Stats{Streams: len(s.specs), Tenants: tenants, Draining: s.draining}
}

// Start listens on addr for the binary protocol and serves connections
// until Close. It returns the bound address (useful with ":0").
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.serving.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.serving.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close() // accepted after Close collected the connections
			continue
		}
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// track registers an accepted connection for Close to end. It reports
// false once Close has begun: that connection must be refused, since Close
// would never see it.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrack closes a finished connection and forgets it.
func (s *Server) untrack(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// connState is one connection's reusable scratch: the frame read buffer,
// request decoder, response encoder, and the batch machinery. Everything
// is sized by the largest request or group seen so far, so a warm
// connection's ingest path runs without allocating.
type connState struct {
	frame   []byte
	dec     state.Decoder
	enc     *state.Encoder
	batch   ingestBatch
	group   []groupFrame
	items   []fleet.BatchItem
	results []fleet.BatchResult
	batcher *fleet.Batcher
}

// groupFrame is one ingest frame's share of its group: the number of batch
// items it carried, or why it failed to decode.
type groupFrame struct {
	n   int
	err error
}

func newConnState(eng *fleet.Engine) *connState {
	return &connState{enc: state.NewEncoder(), batcher: eng.NewBatcher()}
}

// serveConn runs one connection on one goroutine: read a request frame,
// handle it, write its response into the connection's buffered writer.
// Frames are handled strictly in arrival order, which is what delivers
// responses in request order; ingest frames that arrived together are
// decided together (serveIngest). The writer is flushed before every read
// that could block, that is whenever the next request frame is not
// already whole in the read buffer: responses to frames that arrived
// together leave in one write, and no response waits on bytes the client
// has not sent. A client that stops reading blocks the write, so the
// connection stops reading frames (backpressure through the socket).
// Protocol errors are answered with MsgError and the loop continues;
// transport errors end the connection.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	cs := newConnState(s.eng)
	for {
		typ, payload, err := readFrameInto(br, &cs.frame)
		if err != nil {
			return
		}
		if typ == MsgIngestBatch {
			err = s.serveIngest(cs, br, bw, payload)
		} else {
			rtyp, rp := s.handleReq(cs, typ, payload)
			err = writeFrame(bw, rtyp, rp)
		}
		if err != nil {
			return
		}
		if _, whole := frameBuffered(br); !whole {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// serveIngest answers the MsgIngestBatch frame whose payload was just read
// together with every further MsgIngestBatch frame already whole in br. It
// decodes all their samples into one batch, decides them in one
// IngestBatch call, and writes one response per frame to bw, in arrival
// order. The group never reads the socket, so it spans at most one read
// buffer, and it ends at the first frame that is not whole or not an
// ingest frame. Each response is byte for byte the one the frame would
// get alone: Batcher waves keep each stream's samples in arrival order, a
// frame that fails to decode gets its own MsgError, and a refusal of the
// whole batch (draining) answers every frame of the group.
func (s *Server) serveIngest(cs *connState, br *bufio.Reader, bw *bufio.Writer, payload []byte) error {
	b := &cs.batch
	// Every frame of the group lies within these bytes.
	b.reset(len(payload) + br.Buffered())
	cs.group = cs.group[:0]
	for {
		n := len(b.handles)
		err := b.decode(payload)
		cs.group = append(cs.group, groupFrame{n: len(b.handles) - n, err: err})
		if typ, whole := frameBuffered(br); !whole || typ != MsgIngestBatch {
			break
		}
		if _, payload, err = readFrameInto(br, &cs.frame); err != nil {
			return err
		}
	}
	cs.items = cs.items[:0]
	cs.results = cs.results[:0]
	for i := range b.handles {
		cs.items = append(cs.items, fleet.BatchItem{Estimate: mat.Vec(b.ests[i]), AppliedU: mat.Vec(b.us[i])})
		cs.results = append(cs.results, fleet.BatchResult{})
	}
	batchErr := s.IngestBatch(cs.batcher, b.handles, cs.items, cs.results)
	enc, res := cs.enc, cs.results
	for _, f := range cs.group {
		enc.Reset()
		typ := byte(MsgDecisionBatch)
		if err := cmp.Or(f.err, batchErr); err != nil {
			typ = MsgError
			enc.String(err.Error())
		} else {
			enc.U32(uint32(f.n))
			for _, r := range res[:f.n] {
				appendBatchDecision(enc, r.Decision, r.Err)
			}
		}
		res = res[f.n:]
		if err := writeFrame(bw, typ, enc.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// handleReq dispatches one request frame other than an ingest frame and
// builds its response frame in the connection's scratch encoder. The
// returned payload aliases that encoder and is valid until the next call.
func (s *Server) handleReq(cs *connState, typ byte, payload []byte) (byte, []byte) {
	dec := &cs.dec
	dec.Reset(payload)
	enc := cs.enc
	enc.Reset()
	fail := func(err error) (byte, []byte) {
		enc.Reset()
		enc.String(err.Error())
		return MsgError, enc.Bytes()
	}
	switch typ {
	case MsgHello:
		v := dec.U16()
		_ = dec.String() // client name: diagnostic only
		if err := dec.Err(); err != nil {
			return fail(err)
		}
		if v != ProtocolVersion {
			return fail(fmt.Errorf("wire: client speaks protocol %d, server %d", v, ProtocolVersion))
		}
		enc.String("awdserve")
		enc.U16(ProtocolVersion)
		return MsgOK, enc.Bytes()
	case MsgOpen:
		tenant := dec.String()
		stream := dec.String()
		model := dec.String()
		strategy := dec.String()
		fixedWin := dec.Int()
		if err := dec.Err(); err != nil {
			return fail(err)
		}
		h, err := s.Open(tenant, stream, model, strategy, fixedWin)
		if err != nil {
			return fail(err)
		}
		enc.U64(h)
		return MsgOpened, enc.Bytes()
	case MsgCheckpoint:
		name := dec.String()
		if err := dec.Err(); err != nil {
			return fail(err)
		}
		path, n, err := s.Checkpoint(name)
		if err != nil {
			return fail(err)
		}
		enc.String(fmt.Sprintf("%s (%d bytes)", path, n))
		return MsgOK, enc.Bytes()
	case MsgDrain:
		s.Drain()
		enc.String("drained")
		return MsgOK, enc.Bytes()
	case MsgRestore:
		name := dec.String()
		if err := dec.Err(); err != nil {
			return fail(err)
		}
		n, err := s.Restore(name)
		if err != nil {
			return fail(err)
		}
		enc.String(fmt.Sprintf("%d streams", n))
		return MsgOK, enc.Bytes()
	default:
		return fail(fmt.Errorf("wire: unknown message type 0x%02x", typ))
	}
}

// Close shuts the listeners, closes every open connection, waits for
// their goroutines to finish the frame each is handling, and closes the
// fleet engine (draining every stream's last sample). Closing twice is a
// no-op.
func (s *Server) Close() error {
	// Collect under the lock, close outside it: closing is network I/O.
	s.mu.Lock()
	if s.conns == nil {
		s.mu.Unlock()
		return nil
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.conns = nil
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	if s.httpSrv != nil {
		s.httpSrv.close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	s.serving.Wait()
	return s.eng.Close()
}
