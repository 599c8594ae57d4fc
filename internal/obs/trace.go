package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// StepEvent is the structured trace record of one detection step — the
// run-time signals the paper's evaluation plots offline (window size,
// deadline, residual level, alarms) plus the operational context needed to
// monitor a deployed detector (reachability latency, logger occupancy).
type StepEvent struct {
	Step int `json:"step"`
	// StreamID attributes the event to one detection stream in a fleet;
	// empty for standalone detectors (core.System.SetStreamID stamps it).
	StreamID string `json:"stream,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// Window is the detection window size used this step; Deadline the
	// reachability deadline t_d that sized it (adaptive only).
	Window   int `json:"window"`
	Deadline int `json:"deadline"`
	// Alarm / Complementary mirror the step's Decision; Dims attributes a
	// firing check to the suspect residual dimensions.
	Alarm             bool  `json:"alarm"`
	Complementary     bool  `json:"complementary,omitempty"`
	ComplementaryStep int   `json:"complementary_step,omitempty"`
	Dims              []int `json:"dims,omitempty"`
	// ResidualAvg is the per-dimension windowed average residual the window
	// rule compared against τ (nil when the logger could not serve the
	// window).
	ResidualAvg []float64 `json:"residual_avg,omitempty"`
	// ReachTimed reports whether this step ran the reachability deadline
	// search; ReachMicros is its wall-clock cost in microseconds.
	ReachTimed  bool    `json:"reach_timed,omitempty"`
	ReachMicros float64 `json:"reach_us,omitempty"`
	// Logger occupancy and lifetime totals of the Data Logger's sliding
	// window protocol.
	LoggerLen      int `json:"logger_len"`
	LoggerObserved int `json:"logger_observed,omitempty"`
	LoggerReleased int `json:"logger_released,omitempty"`
}

// String renders the event with the shared one-line decision format plus
// the telemetry tail.
func (ev StepEvent) String() string {
	s := FormatDecision(ev.Step, ev.Window, ev.Deadline, ev.Alarm, ev.Complementary, ev.ComplementaryStep, ev.Dims)
	if ev.StreamID != "" {
		s = ev.StreamID + "  " + s
	}
	if ev.ReachTimed {
		s += fmt.Sprintf("  reach=%.1fµs", ev.ReachMicros)
	}
	return s + fmt.Sprintf("  log=%d", ev.LoggerLen)
}

// FormatDecision is the one compact decision formatter shared by
// awd.Decision, core.Decision, StepEvent, and the CLI tools, so a decision
// reads the same everywhere:
//
//	step  142  w=12 d=12  ALARM dims=[0 2]
//	step  143  w=10 d=10  comp@138 dims=[1]
//	step  144  w=10 d=10  ok
//
// Pass deadline < 0 for detectors without a deadline estimator (the d=
// field is omitted) and complementaryStep -1 when no complementary pass
// fired.
func FormatDecision(step, window, deadline int, alarm, complementary bool, complementaryStep int, dims []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %4d  w=%d", step, window)
	if deadline >= 0 {
		fmt.Fprintf(&b, " d=%d", deadline)
	}
	comp := "comp"
	if complementaryStep >= 0 {
		comp = fmt.Sprintf("comp@%d", complementaryStep)
	}
	switch {
	case alarm && complementary:
		fmt.Fprintf(&b, "  ALARM+%s", comp)
	case alarm:
		b.WriteString("  ALARM")
	case complementary:
		fmt.Fprintf(&b, "  %s", comp)
	default:
		b.WriteString("  ok")
	}
	if len(dims) > 0 {
		fmt.Fprintf(&b, " dims=%v", dims)
	}
	return b.String()
}

// Sink receives the trace event stream. Implementations must be safe for
// concurrent Emit calls: parallel Monte-Carlo campaigns share one sink.
// The event's slice fields (ResidualAvg, Dims) are only valid for the
// duration of Emit — the emitter reuses scratch buffers to keep the hot
// path allocation-free — so a sink that retains events must copy them
// (RingSink does).
type Sink interface {
	Emit(ev StepEvent)
	Close() error
}

// NopSink discards every event. It is the enabled-but-not-tracing default
// and the sink the allocation contract is benchmarked against.
type NopSink struct{}

// Emit discards the event.
func (NopSink) Emit(StepEvent) {}

// Close is a no-op.
func (NopSink) Close() error { return nil }

// RingSink keeps the most recent events in a fixed-capacity ring buffer —
// a flight recorder for post-mortem inspection without unbounded growth.
// A ring made by NewStreamTail is the single-stream drill-down sink: it
// keeps only the events of one target stream (matched on
// StepEvent.StreamID), so an operator can tail one stream's residual /
// window / deadline trajectory out of a fleet emitting millions of events.
// Safe for concurrent use.
type RingSink struct {
	mu      sync.Mutex
	buf     []StepEvent
	next    int
	full    bool
	dropped int64
	// tail marks a stream tail, which keeps only target's events ("" keeps
	// none); a plain ring keeps every event.
	tail   bool
	target string
}

// NewRingSink returns a ring sink holding the latest capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		panic(fmt.Sprintf("obs: ring sink capacity %d must be >= 1", capacity))
	}
	return &RingSink{buf: make([]StepEvent, capacity)}
}

// NewStreamTail returns a ring retaining the latest capacity events of the
// target stream. An empty initial id means "no target yet" (every event is
// discarded until Retarget).
func NewStreamTail(capacity int, id string) *RingSink {
	s := NewRingSink(capacity)
	s.tail, s.target = true, id
	return s
}

// Emit records the event, overwriting the oldest once full. A tail drops
// another stream's event after one string compare, before copying
// anything. The slice fields of a kept event are copied so retained events
// stay valid after Emit returns.
func (s *RingSink) Emit(ev StepEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tail && (s.target == "" || ev.StreamID != s.target) {
		return
	}
	ev.ResidualAvg = append([]float64(nil), ev.ResidualAvg...)
	ev.Dims = append([]int(nil), ev.Dims...)
	if s.full {
		s.dropped++
	}
	s.buf[s.next] = ev
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
}

// Retarget makes the ring a tail of stream id, dropping the previous
// stream's retained events so the tail never mixes two streams'
// trajectories. A no-op when the tail already targets id.
func (s *RingSink) Retarget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tail && id == s.target {
		return
	}
	s.tail, s.target = true, id
	clear(s.buf)
	s.next, s.full, s.dropped = 0, false, 0
}

// Target returns the tail's target stream id ("" when untargeted or for a
// plain ring).
func (s *RingSink) Target() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []StepEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]StepEvent(nil), s.buf[:s.next]...)
	}
	out := make([]StepEvent, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Dropped counts events overwritten before they were ever read.
func (s *RingSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close is a no-op; the buffer stays readable.
func (s *RingSink) Close() error { return nil }

// TeeSink fans every event out to all sinks in order; Close closes each
// and returns the first error. Use it to combine a drill-down tail with a
// JSONL trace writer on one observer.
func TeeSink(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Emit(ev StepEvent) {
	for _, s := range t {
		s.Emit(ev)
	}
}

func (t teeSink) Close() error {
	var first error
	for _, s := range t {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// JSONLSink streams every event as one JSON object per line — the
// machine-readable trace format the -trace-out CLI flag writes.
type JSONLSink struct {
	mu      sync.Mutex
	enc     *json.Encoder
	closer  io.Closer
	lastErr error
}

// NewJSONLSink wraps a writer. If w is also an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{enc: json.NewEncoder(w)}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	return s
}

// Emit encodes the event; the first encode error is retained and returned
// by Close (trace emission must never abort a control loop).
func (s *JSONLSink) Emit(ev StepEvent) {
	s.mu.Lock()
	if err := s.enc.Encode(ev); err != nil && s.lastErr == nil {
		s.lastErr = err
	}
	s.mu.Unlock()
}

// Close releases the underlying writer and reports any emission error.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closer != nil {
		if err := s.closer.Close(); err != nil && s.lastErr == nil {
			s.lastErr = err
		}
		s.closer = nil
	}
	return s.lastErr
}
