package wire

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sim"
)

// startAwdserve builds (once) and launches the awdserve binary, returning
// the process and its bound wire address parsed from stdout.
func startAwdserve(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start awdserve: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("awdserve did not report a listen address")
		return nil, ""
	}
}

// TestCrashReplaySIGKILL is the process-level proof obligation: a real
// awdserve process is killed with SIGKILL mid-run, restarted from its last
// checkpoint, and the decision stream replayed from the checkpoint step
// must be bit-identical to the stream the original process produced — and,
// past the kill point, to a never-crashed in-process reference.
func TestCrashReplaySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the awdserve binary")
	}
	const (
		ckptStep = 40 // checkpoint taken here
		killStep = 70 // SIGKILL lands here
		steps    = 100
	)
	dir := t.TempDir()
	bin := filepath.Join(dir, "awdserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/awdserve")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/awdserve: %v\n%s", err, out)
	}

	type streamDef struct {
		tenant, stream, model, strategy string
	}
	defs := []streamDef{
		{"acme", "pitch", "aircraft-pitch", "adaptive"},
		{"acme", "quad", "quadrotor", "adaptive"},
		{"globex", "car", "testbed-car", "fixed"},
	}
	// Samples are regenerated deterministically from step 0 on both sides
	// of the crash — the generators are stateful, so replay means replay.
	trajs := make([][][]float64, len(defs))
	inputs := make([][]float64, len(defs))
	for i, d := range defs {
		trajs[i], inputs[i] = wireTrajectory(models.ByName(d.model), 31+uint64(i), steps)
	}

	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	proc, addr := startAwdserve(t, bin, "-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir)
	defer func() { _ = proc.Process.Kill() }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	handles := make([]uint64, len(defs))
	for i, d := range defs {
		if handles[i], err = c.Open(d.tenant, d.stream, d.model, d.strategy, 0); err != nil {
			t.Fatalf("Open(%s/%s): %v", d.tenant, d.stream, err)
		}
	}
	// Drive to the kill point, checkpointing on the way; everything the
	// doomed process said after the checkpoint is the reference the
	// restored process must reproduce.
	got := make([][]core.Decision, len(defs))
	for step := 0; step < killStep; step++ {
		if step == ckptStep {
			if _, err := c.Checkpoint("crash.awds"); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		for i := range defs {
			d, err := c.Ingest(handles[i], trajs[i][step], inputs[i])
			if err != nil {
				t.Fatalf("Ingest(%s, %d): %v", defs[i].stream, step, err)
			}
			got[i] = append(got[i], d)
		}
	}
	c.Close()
	if err := proc.Process.Kill(); err != nil { // SIGKILL: no drain, no final checkpoint
		t.Fatalf("kill: %v", err)
	}
	_ = proc.Wait()

	// Never-crashed reference for the tail past the kill point.
	want := make([][]core.Decision, len(defs))
	for i, d := range defs {
		strat, err := parseStrategy(d.strategy)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := sim.Detector(sim.Config{Model: models.ByName(d.model), Strategy: strat})
		if err != nil {
			t.Fatalf("Detector: %v", err)
		}
		want[i] = make([]core.Decision, steps)
		for step := 0; step < steps; step++ {
			if want[i][step], err = serial.Step(trajs[i][step], inputs[i]); err != nil {
				t.Fatalf("serial %s step %d: %v", d.stream, step, err)
			}
		}
		// Sanity: the doomed process agreed with the reference while alive.
		for step := 0; step < killStep; step++ {
			if !wireDecisionsEqual(got[i][step], want[i][step]) {
				t.Fatalf("pre-kill %s step %d: %+v != %+v", d.stream, step, got[i][step], want[i][step])
			}
		}
	}

	proc2, addr2 := startAwdserve(t, bin,
		"-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir, "-restore-from", "crash.awds")
	defer func() { _ = proc2.Process.Kill() }()
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatalf("Dial restored: %v", err)
	}
	for i, d := range defs {
		h, err := c2.Open(d.tenant, d.stream, d.model, d.strategy, 0)
		if err != nil {
			t.Fatalf("re-Open(%s/%s): %v", d.tenant, d.stream, err)
		}
		for step := ckptStep; step < steps; step++ {
			dec, err := c2.Ingest(h, trajs[i][step], inputs[i])
			if err != nil {
				t.Fatalf("restored Ingest(%s, %d): %v", d.stream, step, err)
			}
			if !wireDecisionsEqual(dec, want[i][step]) {
				t.Fatalf("restored %s step %d: %+v != never-crashed %+v", d.stream, step, dec, want[i][step])
			}
		}
	}
	defer c2.Close()

	// Graceful shutdown path: SIGTERM drains, writes a final checkpoint and
	// exits while c2 is still connected — the server ends open connections
	// instead of waiting for their clients to hang up.
	if err := proc2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- proc2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("awdserve exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("awdserve did not exit on SIGTERM with a client connected")
	}
	final := filepath.Join(ckptDir, DefaultCheckpointName)
	if st, err := os.Stat(final); err != nil || st.Size() == 0 {
		t.Fatalf("final checkpoint %s missing or empty (err=%v)", final, err)
	}
	// Handle 1 is the restored process's first re-Open, defs[0]'s stream.
	if _, err := c2.Ingest(1, trajs[0][0], inputs[0]); err == nil {
		t.Fatalf("ingest on a connection of an exited server succeeded")
	}
}

// TestCrashReplayPipelinedSIGKILL kills a real awdserve process while a
// pipelined client has a full in-flight window against it — the hardest
// recovery case, since samples die in every stage: unflushed in the
// client, unread in the socket buffers, decided but still in the server's
// write buffer, delivered but unacknowledged. The proof obligation: every
// decision the pipeline delivered before the kill is a clean prefix of the
// never-crashed reference stream, and a process restored from the mid-run
// checkpoint replays the whole tail — including every sample that was
// mid-pipeline at the kill — bit-identically.
func TestCrashReplayPipelinedSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the awdserve binary")
	}
	const (
		ckptStep = 30 // checkpoint taken here
		killStep = 65 // pipelined submissions stop here; SIGKILL mid-window
		steps    = 90
	)
	dir := t.TempDir()
	bin := filepath.Join(dir, "awdserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/awdserve")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/awdserve: %v\n%s", err, out)
	}

	type streamDef struct {
		tenant, stream, model, strategy string
	}
	defs := []streamDef{
		{"acme", "pitch", "aircraft-pitch", "adaptive"},
		{"globex", "rlc", "series-rlc", "adaptive"},
	}
	trajs := make([][][]float64, len(defs))
	inputs := make([][]float64, len(defs))
	want := make([][]core.Decision, len(defs))
	for i, d := range defs {
		trajs[i], inputs[i] = wireTrajectory(models.ByName(d.model), 57+uint64(i), steps)
		serial, err := sim.Detector(sim.Config{Model: models.ByName(d.model), Strategy: sim.Adaptive})
		if err != nil {
			t.Fatalf("Detector: %v", err)
		}
		want[i] = make([]core.Decision, steps)
		for step := 0; step < steps; step++ {
			if want[i][step], err = serial.Step(trajs[i][step], inputs[i]); err != nil {
				t.Fatalf("serial %s step %d: %v", d.stream, step, err)
			}
		}
	}

	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	proc, addr := startAwdserve(t, bin, "-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir)
	defer func() { _ = proc.Process.Kill() }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	handles := make([]uint64, len(defs))
	for i, d := range defs {
		if handles[i], err = c.Open(d.tenant, d.stream, d.model, d.strategy, 0); err != nil {
			t.Fatalf("Open(%s/%s): %v", d.tenant, d.stream, err)
		}
	}
	// Synchronous prefix up to the checkpoint.
	for step := 0; step < ckptStep; step++ {
		for i := range defs {
			d, err := c.Ingest(handles[i], trajs[i][step], inputs[i])
			if err != nil {
				t.Fatalf("Ingest(%s, %d): %v", defs[i].stream, step, err)
			}
			if !wireDecisionsEqual(d, want[i][step]) {
				t.Fatalf("pre-checkpoint %s step %d: %+v != %+v", defs[i].stream, step, d, want[i][step])
			}
		}
	}
	if _, err := c.Checkpoint("crash.awds"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Pipelined phase: stream without waiting, then SIGKILL with the
	// window still in flight (no flush, no close handshake).
	type rec struct{ caseIdx, step int }
	var subs []rec
	var results []IngestResult
	p, err := c.Pipeline(32, func(_ uint64, d core.Decision, err error) {
		results = append(results, IngestResult{Decision: d, Err: err})
	})
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
submitting:
	for step := ckptStep; step < killStep; step++ {
		for i := range defs {
			if err := p.Ingest(handles[i], trajs[i][step], inputs[i]); err != nil {
				break submitting // server already gone; fine, window was full
			}
			subs = append(subs, rec{i, step})
		}
	}
	if err := proc.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_ = proc.Wait()
	_ = p.Close() // transport error expected: the window died with the server
	c.Close()

	// Ordered delivery means the successes form a clean prefix of the
	// submission order, each bit-identical to the reference.
	delivered := 0
	for k, res := range results {
		if res.Err != nil {
			break
		}
		s := subs[k]
		if !wireDecisionsEqual(res.Decision, want[s.caseIdx][s.step]) {
			t.Fatalf("pipelined delivery %d (%s step %d): %+v != %+v",
				k, defs[s.caseIdx].stream, s.step, res.Decision, want[s.caseIdx][s.step])
		}
		delivered++
	}
	t.Logf("pipeline delivered %d/%d decisions before SIGKILL", delivered, len(subs))

	// Restore and replay the whole tail from the checkpoint — the replay
	// covers every sample that was mid-pipeline when the process died.
	proc2, addr2 := startAwdserve(t, bin,
		"-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir, "-restore-from", "crash.awds")
	defer func() { _ = proc2.Process.Kill() }()
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatalf("Dial restored: %v", err)
	}
	defer c2.Close()
	for i, d := range defs {
		h, err := c2.Open(d.tenant, d.stream, d.model, d.strategy, 0)
		if err != nil {
			t.Fatalf("re-Open(%s/%s): %v", d.tenant, d.stream, err)
		}
		// Replay pipelined too: recovery must not depend on dropping back
		// to the synchronous path.
		step := ckptStep
		p2, err := c2.Pipeline(16, func(_ uint64, dec core.Decision, err error) {
			if err != nil {
				t.Errorf("restored %s: %v", d.stream, err)
				return
			}
			if !wireDecisionsEqual(dec, want[i][step]) {
				t.Errorf("restored %s step %d: %+v != never-crashed %+v", d.stream, step, dec, want[i][step])
			}
			step++
		})
		if err != nil {
			t.Fatalf("Pipeline restored: %v", err)
		}
		for s := ckptStep; s < steps; s++ {
			if err := p2.Ingest(h, trajs[i][s], inputs[i]); err != nil {
				t.Fatalf("restored Ingest(%s, %d): %v", d.stream, s, err)
			}
		}
		if err := p2.Close(); err != nil {
			t.Fatalf("restored Close(%s): %v", d.stream, err)
		}
		if step != steps {
			t.Fatalf("restored %s delivered through step %d, want %d", d.stream, step, steps)
		}
	}
}
