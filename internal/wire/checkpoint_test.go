package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/state"
)

var allStrategies = []sim.Strategy{sim.Adaptive, sim.FixedWindow, sim.CUSUMBaseline, sim.EWMABaseline}

// mixedSpecs returns n stream specs cycling through all six models and all
// four strategies.
func mixedSpecs(tenant string, n int) []streamSpec {
	names := models.Names()
	specs := make([]streamSpec, n)
	for i := range specs {
		specs[i] = streamSpec{
			tenant:   tenant,
			stream:   fmt.Sprintf("s-%04d", i),
			model:    names[i%len(names)],
			strategy: allStrategies[(i/len(names))%len(allStrategies)],
		}
	}
	return specs
}

// openSpecs opens every spec on srv in process and returns the handles.
func openSpecs(t *testing.T, srv *Server, specs []streamSpec) []uint64 {
	t.Helper()
	handles := make([]uint64, len(specs))
	for i, sp := range specs {
		h, err := srv.Open(sp.tenant, sp.stream, sp.model, sp.strategy.String(), sp.fixedWin)
		if err != nil {
			t.Fatalf("Open(%s): %v", sp.id(), err)
		}
		handles[i] = h
	}
	return handles
}

// ingestSteps feeds steps [from, to) of each stream's wireTrajectory (seeded
// by the stream's index) through in-process batches of every stream, and
// returns the decisions by step and stream.
func ingestSteps(t *testing.T, srv *Server, specs []streamSpec, handles []uint64, from, to int) [][]core.Decision {
	t.Helper()
	ests := make([][][]float64, len(specs))
	us := make([][]float64, len(specs))
	for i, sp := range specs {
		ests[i], us[i] = wireTrajectory(models.ByName(sp.model), uint64(i+1), to)
	}
	bt := srv.Engine().NewBatcher()
	items := make([]fleet.BatchItem, len(specs))
	out := make([]fleet.BatchResult, len(specs))
	var decs [][]core.Decision
	for step := from; step < to; step++ {
		for i := range items {
			items[i] = fleet.BatchItem{Estimate: mat.Vec(ests[i][step]), AppliedU: mat.Vec(us[i])}
		}
		if err := srv.IngestBatch(bt, handles, items, out); err != nil {
			t.Fatalf("IngestBatch(step %d): %v", step, err)
		}
		row := make([]core.Decision, len(out))
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("step %d, stream %s: %v", step, specs[i].id(), r.Err)
			}
			row[i] = r.Decision
		}
		decs = append(decs, row)
	}
	return decs
}

// TestCheckpointStreamedBytes pins that streaming a checkpoint into its
// file changes none of its bytes: for a fleet of all six plants under all
// four strategies plus 300 adaptive quadrotor streams — a ~2.7 MB file,
// so the encoder spills many times — the file equals the buffered
// encoding of the header, the spec section and Engine.Snapshot.
func TestCheckpointStreamedBytes(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Config{CheckpointDir: dir, Workers: 2})
	defer srv.Close()
	specs := mixedSpecs("mix", 24)
	for i := 0; i < 300; i++ {
		specs = append(specs, streamSpec{tenant: "quad", stream: fmt.Sprintf("q-%04d", i), model: "quadrotor", strategy: sim.Adaptive})
	}
	handles := openSpecs(t, srv, specs)
	ingestSteps(t, srv, specs, handles, 0, 41)

	path, n, err := srv.Checkpoint("streamed.awds")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	sorted := slices.Clone(specs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id() < sorted[j].id() })
	want := state.NewEncoder()
	want.Header()
	want.Begin(state.TagServer, serverStateVersion)
	want.U32(uint32(len(sorted)))
	for _, sp := range sorted {
		want.String(sp.tenant)
		want.String(sp.stream)
		want.String(sp.model)
		want.String(sp.strategy.String())
		want.Int(sp.fixedWin)
	}
	if err := srv.Engine().Snapshot(want); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(got) < 8<<20/4 {
		t.Fatalf("checkpoint is only %d bytes; the test needs one that spills many times", len(got))
	}
	if n != len(got) || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed checkpoint is %d bytes (reported %d); the buffered encoding is %d and they differ", len(got), n, want.Len())
	}
}

// TestCheckpointAllocs pins the memory of a streamed checkpoint: one
// Checkpoint of 2,000 warmed quadrotor streams, an ~17.6 MB file, must
// allocate at most 4 MB. Building the file in one buffer first allocated
// several times the file size on every checkpoint.
func TestCheckpointAllocs(t *testing.T) {
	const streams, limit = 2000, 4 << 20
	srv := NewServer(Config{CheckpointDir: t.TempDir(), Workers: 2})
	defer srv.Close()
	specs := make([]streamSpec, streams)
	for i := range specs {
		specs[i] = streamSpec{tenant: "quad", stream: fmt.Sprintf("q-%04d", i), model: "quadrotor", strategy: sim.Adaptive}
	}
	handles := openSpecs(t, srv, specs)
	ingestSteps(t, srv, specs, handles, 0, 41)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, n, err := srv.Checkpoint("pin.awds")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Checkpoint of %d streams (%d-byte file) allocated %d bytes", streams, n, alloc)
	if alloc > limit {
		t.Fatalf("Checkpoint of %d streams (%d-byte file) allocated %d bytes, limit %d", streams, n, alloc, limit)
	}
}

// TestOpenWaitsForCheckpointLock pins that Open registers under the read
// side of ingestMu: while a checkpoint holds the write side, an Open must
// not return, so no stream can land in the engine snapshot without its
// spec.
func TestOpenWaitsForCheckpointLock(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	srv.ingestMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Open("t", "s", "vehicle-turning", "adaptive", 0)
		done <- err
	}()
	select {
	case err := <-done:
		srv.ingestMu.Unlock()
		t.Fatalf("Open returned (err %v) while the checkpoint lock was held", err)
	case <-time.After(100 * time.Millisecond):
	}
	srv.ingestMu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("Open after the lock was released: %v", err)
	}
}

// TestCheckpointConcurrentOpenRestores takes ten checkpoints of a
// 3,000-stream server while another goroutine keeps opening streams, and
// restores each into a fresh server: every one must restore, with a spec
// for every stream in its engine snapshot.
func TestCheckpointConcurrentOpenRestores(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Config{CheckpointDir: dir, Workers: 2})
	defer srv.Close()
	for i := 0; i < 3000; i++ {
		if _, err := srv.Open("t", fmt.Sprintf("s-%06d", i), "vehicle-turning", "adaptive", 0); err != nil {
			t.Fatalf("Open(%d): %v", i, err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.Open("t", fmt.Sprintf("late-%06d", i), "vehicle-turning", "adaptive", 0); err != nil {
				t.Errorf("Open(late-%06d): %v", i, err)
				return
			}
		}
	}()
	names := make([]string, 10)
	for k := range names {
		names[k] = fmt.Sprintf("race-%d.awds", k)
		if _, _, err := srv.Checkpoint(names[k]); err != nil {
			t.Errorf("Checkpoint(%s): %v", names[k], err)
		}
	}
	close(stop)
	wg.Wait()
	for _, name := range names {
		fresh := NewServer(Config{CheckpointDir: dir, Workers: 1})
		n, err := fresh.Restore(name)
		if err != nil {
			t.Errorf("Restore(%s): %v", name, err)
		} else if got := fresh.Engine().Streams(); got != n {
			t.Errorf("Restore(%s): %d specs, %d engine streams", name, n, got)
		}
		fresh.Close()
	}
}

// TestFailedRestoreLeavesServerEmpty pins that a failed Restore does not
// wedge the server: restoring truncated copies of a 50-stream checkpoint
// fails each time with no stream left in the engine or the registry, the
// same server then restores the intact file and replays the suffix
// bit-identically, and a server whose restore failed opens a recorded
// stream afresh. A file whose header names the retired container version
// 1 is refused the same way, with an error naming the version.
func TestFailedRestoreLeavesServerEmpty(t *testing.T) {
	const k, steps = 20, 40
	dir := t.TempDir()
	src := NewServer(Config{CheckpointDir: dir, Workers: 2})
	defer src.Close()
	specs := mixedSpecs("t", 50)
	handles := openSpecs(t, src, specs)
	ingestSteps(t, src, specs, handles, 0, k)
	if _, _, err := src.Checkpoint("full.awds"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := ingestSteps(t, src, specs, handles, k, steps)

	blob, err := state.ReadFile(filepath.Join(dir, "full.awds"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var cuts []string
	for _, cut := range []int{20, len(blob) / 3, len(blob) / 2, 2 * len(blob) / 3, len(blob) - 1} {
		name := fmt.Sprintf("cut-%d.awds", cut)
		if err := state.WriteFile(filepath.Join(dir, name), blob[:cut]); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		cuts = append(cuts, name)
	}
	restoreFails := func(srv *Server, name string) error {
		t.Helper()
		n, err := srv.Restore(name)
		if err == nil {
			t.Fatalf("Restore(%s) of a damaged checkpoint succeeded with %d streams", name, n)
		}
		if n, st := srv.Engine().Streams(), srv.Stats().Streams; n != 0 || st != 0 {
			t.Fatalf("failed Restore(%s) left %d engine streams, %d registered", name, n, st)
		}
		return err
	}

	srv := NewServer(Config{CheckpointDir: dir, Workers: 2})
	defer srv.Close()
	for _, name := range cuts {
		restoreFails(srv, name)
	}
	if n, err := srv.Restore("full.awds"); err != nil || n != len(specs) {
		t.Fatalf("Restore(full.awds) after failed restores = %d, %v; want %d streams", n, err, len(specs))
	}
	got := ingestSteps(t, srv, specs, openSpecs(t, srv, specs), k, steps)
	for s := range got {
		for i := range got[s] {
			if !wireDecisionsEqual(got[s][i], want[s][i]) {
				t.Fatalf("step %d, stream %s: restored decision %+v != original %+v", k+s, specs[i].id(), got[s][i], want[s][i])
			}
		}
	}

	old := bytes.Clone(blob)
	old[len(state.Magic)], old[len(state.Magic)+1] = 1, 0
	if err := state.WriteFile(filepath.Join(dir, "v1.awds"), old); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	other := NewServer(Config{CheckpointDir: dir, Workers: 2})
	defer other.Close()
	restoreFails(other, cuts[3])
	if err := restoreFails(other, "v1.awds"); !strings.Contains(err.Error(), "container version 1 ") {
		t.Fatalf("Restore(v1.awds) = %v, want an error naming container version 1", err)
	}
	ingestSteps(t, other, specs[:1], openSpecs(t, other, specs[:1]), 0, 3)
}

// TestCheckpointNames pins the checkpoint name rule shared by Checkpoint
// and Restore: "" is the default file, and ".", "..", and any name with a
// separator are refused — in process and over the binary protocol —
// before anything is written outside the checkpoint directory.
func TestCheckpointNames(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "parent", "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	srv, addr := startServer(t, Config{CheckpointDir: dir, Workers: 1})
	if _, err := srv.Open("t", "s", "vehicle-turning", "adaptive", 0); err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := dial(t, addr)
	for _, tc := range []struct {
		name string
		ok   bool
	}{{"", true}, {".", false}, {"..", false}, {"a/b", false}, {"../x", false}} {
		path, _, err := srv.Checkpoint(tc.name)
		_, rpcErr := c.Checkpoint(tc.name)
		fresh := NewServer(Config{CheckpointDir: dir, Workers: 1})
		_, restoreErr := fresh.Restore(tc.name)
		fresh.Close()
		if tc.ok {
			if err != nil || rpcErr != nil || restoreErr != nil {
				t.Fatalf("name %q: Checkpoint %v, over the wire %v, Restore %v", tc.name, err, rpcErr, restoreErr)
			}
			if want := filepath.Join(dir, DefaultCheckpointName); path != want {
				t.Fatalf("name %q: wrote %s, want %s", tc.name, path, want)
			}
			continue
		}
		for i, err := range []error{err, rpcErr, restoreErr} {
			if err == nil || !strings.Contains(err.Error(), "checkpoint name") {
				what := []string{"Checkpoint", "Checkpoint over the wire", "Restore"}[i]
				t.Errorf("name %q: %s = %v, want the checkpoint name rule's error", tc.name, what, err)
			}
		}
	}
	for _, d := range []struct {
		path string
		want []string
	}{{root, []string{"parent"}}, {filepath.Dir(dir), []string{"ckpt"}}, {dir, []string{DefaultCheckpointName}}} {
		entries, err := os.ReadDir(d.path)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", d.path, err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, d.want) {
			t.Errorf("%s holds %v, want %v", d.path, names, d.want)
		}
	}
}
