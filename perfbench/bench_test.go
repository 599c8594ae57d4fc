package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// awdserveBin is cmd/awdserve built once for every test.
var awdserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	awdserveBin = filepath.Join(dir, "awdserve")
	if out, err := exec.Command("go", "build", "-o", awdserveBin, "repro/cmd/awdserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build awdserve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny runs one workload at a few percent of its size for one second.
func tiny(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(config{
		workload: workload,
		seed:     7,
		seconds:  1,
		trace:    trace,
		awdserve: awdserveBin,
		workdir:  t.TempDir(),
		scale:    0.02,
		out:      &out,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	t.Logf("%s trace=%v:\n%s", workload, trace, out.String())
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: decision check: correct=%v attempted=%d failed=%d\n%s",
			workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// checkMetrics asserts res reports exactly the declared metrics, each with
// its declared unit and a finite value.
func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

func TestEndToEndTiny(t *testing.T) {
	e2e, _ := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, tiny(t, w.name, false), e2e)
		})
	}
}

// TestTracedSeparation checks the per-layer run reports every declared
// metric and shows what each workload was chosen for: the shared deadline
// certificate almost never re-anchors on hover-fleet and mostly does on
// closed-loop-mix; per-sample frames step the engine one sample per batch,
// gateway frames many.
func TestTracedSeparation(t *testing.T) {
	_, layers := declared(t)
	got := map[string]map[string]metric{}
	for _, w := range workloads {
		res := tiny(t, w.name, true)
		checkMetrics(t, res, layers)
		got[w.name] = res.Metrics
	}
	if v := got["closed-loop-mix"]["deadline.reanchor_frac"].Value; v < 0.5 {
		t.Errorf("closed-loop-mix deadline.reanchor_frac = %.3f, want >= 0.5", v)
	}
	if v := got["hover-fleet"]["deadline.reanchor_frac"].Value; v > 0.05 {
		t.Errorf("hover-fleet deadline.reanchor_frac = %.3f, want <= 0.05", v)
	}
	if v := got["per-sample"]["fleet.steps_per_batch"].Value; v != 1 {
		t.Errorf("per-sample fleet.steps_per_batch = %v, want exactly 1", v)
	}
	if v := got["hover-fleet"]["fleet.steps_per_batch"].Value; v <= 1 {
		t.Errorf("hover-fleet fleet.steps_per_batch = %v, want > 1", v)
	}
}
