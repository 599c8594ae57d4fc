package exp

import (
	"math"
	"strings"
	"testing"
)

func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "bb") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "333") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestRenderChartBasics(t *testing.T) {
	out := RenderChart("title", 40, 8,
		Series{Name: "up", Values: []float64{0, 1, 2, 3}},
		Series{Name: "down", Values: []float64{3, 2, 1, 0}},
	)
	if !strings.Contains(out, "title") || !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Errorf("chart missing pieces:\n%s", out)
	}
}

func TestRenderChartEmpty(t *testing.T) {
	out := RenderChart("t", 40, 8, Series{Name: "nan", Values: []float64{math.NaN()}})
	if !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestRenderChartFlatSeries(t *testing.T) {
	out := RenderChart("flat", 30, 6, Series{Name: "c", Values: []float64{5, 5, 5}})
	if strings.Contains(out, "no data") {
		t.Error("flat series should render")
	}
}

func TestTable1ListsAllSimulators(t *testing.T) {
	out := Table1()
	for _, name := range []string{"aircraft-pitch", "vehicle-turning", "series-rlc", "dc-motor", "quadrotor"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s:\n%s", name, out)
		}
	}
	// Spot-check published values.
	for _, v := range []string{"14,0.8,5.7", "[-7, 7]", "0.0078", "1.56e-15", "[0.04, 0.01]"} {
		if !strings.Contains(out, v) {
			t.Errorf("Table 1 missing value %q", v)
		}
	}
}

func TestFig7ShapeAndSuggestion(t *testing.T) {
	pts, err := Fig7(Fig7Config{Runs: 10, MaxWindow: 100, Step: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// Shape: FN must rise with window size (first point lowest, last highest).
	if pts[0].FN > pts[len(pts)-1].FN {
		t.Errorf("FN did not rise with window: %+v", pts)
	}
	// FP must not rise with window size.
	if pts[0].FP < pts[len(pts)-1].FP {
		t.Errorf("FP rose with window: %+v", pts)
	}
	// The FN-based cut must land strictly inside the sweep (the paper picks
	// w_m = 40 from the same profile).
	wm := SuggestMaxWindow(pts, 1)
	if wm <= 0 || wm >= 100 {
		t.Errorf("suggested w_m = %d, want interior value", wm)
	}
	out := RenderFig7(pts, 10)
	if !strings.Contains(out, "Fig 7") || !strings.Contains(out, "window") {
		t.Error("RenderFig7 output malformed")
	}
}

func TestTable2SmallCampaign(t *testing.T) {
	rows, err := Table2(Table2Config{Runs: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 { // 5 simulators x 3 attacks x 2 strategies
		t.Fatalf("rows = %d, want 30", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Simulator+"/"+r.Attack+"/"+r.Strategy] = true
		if r.FP < 0 || r.FP > 2 || r.DM < 0 || r.DM > 2 {
			t.Errorf("row out of range: %+v", r)
		}
	}
	if len(seen) != 30 {
		t.Errorf("duplicate rows: %d unique", len(seen))
	}
	out := RenderTable2(rows, 2)
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "adaptive") {
		t.Error("RenderTable2 malformed")
	}
}

func TestFig6PanelsHeadlineClaim(t *testing.T) {
	panels, err := Fig6(Fig6Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("panels = %d, want 6", len(panels))
	}
	for _, p := range panels {
		if p.AdaptiveAlert < 0 {
			t.Errorf("%s/%s: adaptive never alerted", p.Simulator, p.Attack)
			continue
		}
		// The adaptive alert must never be later than the fixed alert.
		if p.FixedAlert >= 0 && p.AdaptiveAlert > p.FixedAlert {
			t.Errorf("%s/%s: adaptive %d later than fixed %d",
				p.Simulator, p.Attack, p.AdaptiveAlert, p.FixedAlert)
		}
	}
	out := RenderFig6(panels)
	if !strings.Contains(out, "vehicle-turning") || !strings.Contains(out, "series-rlc") {
		t.Error("RenderFig6 malformed")
	}
}

func TestFig8TestbedScenario(t *testing.T) {
	r, err := Fig8(Fig8Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.AttackStart != 80 {
		t.Errorf("attack start = %d, want 80", r.AttackStart)
	}
	// Headline: the adaptive detector fires essentially immediately...
	if r.AdaptiveAlert < 0 || r.AdaptiveAlert > r.AttackStart+2 {
		t.Errorf("adaptive alert = %d, want within 2 steps of onset %d", r.AdaptiveAlert, r.AttackStart)
	}
	// ...and before the unsafe entry, while fixed(30) is untimely (after
	// unsafe entry or never).
	if r.UnsafeStep < 0 {
		t.Fatal("bias attack should drive the car unsafe")
	}
	if r.AdaptiveAlert > r.UnsafeStep {
		t.Errorf("adaptive alert %d after unsafe %d", r.AdaptiveAlert, r.UnsafeStep)
	}
	if r.FixedAlert >= 0 && r.FixedAlert <= r.UnsafeStep {
		t.Errorf("fixed alert %d should be untimely (unsafe at %d)", r.FixedAlert, r.UnsafeStep)
	}
	out := RenderFig8(r)
	if !strings.Contains(out, "Fig 8") || !strings.Contains(out, "adaptive alert") {
		t.Error("RenderFig8 malformed")
	}
}

// TestFig8CampaignSmall pins Sec. 6.2's campaign claim on five seeds: the
// bias drives every run unsafe, the adaptive detector is in time in all of
// them and fixed(30) in none.
func TestFig8CampaignSmall(t *testing.T) {
	r, err := Fig8Campaign(5, 2022, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Fig8CampaignResult{Runs: 5, UnsafeRuns: 5, AdaptiveInTime: 5, FixedInTime: 0}
	if r != want {
		t.Errorf("campaign = %+v, want %+v", r, want)
	}
	out := RenderFig8Campaign(r)
	if !strings.Contains(out, "adaptive in-time detections:     5") ||
		!strings.Contains(out, "fixed(30) in-time detections:    0") {
		t.Errorf("RenderFig8Campaign malformed:\n%s", out)
	}
}

func TestAblationComplementarySmall(t *testing.T) {
	rows, err := AblationComplementary(2, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 5 models x 2 attacks x 2 variants
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderAblation("complementary", rows, 2)
	if !strings.Contains(out, "without complementary") {
		t.Error("render malformed")
	}
}

func TestAblationMaxWindowSmall(t *testing.T) {
	rows, err := AblationMaxWindow(2, 31, []int{10, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "w_m = 10" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestAblationCUSUMSmall(t *testing.T) {
	rows, err := AblationCUSUM(2, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 5 plants x {adaptive, cusum, ewma}
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestExtendedScenariosSmall(t *testing.T) {
	rows, err := ExtendedScenarios(2, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 { // 5 plants x 3 extended attacks x 2 strategies
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Attack] = true
	}
	for _, want := range []string{"freeze", "ramp", "noise"} {
		if !names[want] {
			t.Errorf("missing scenario %s", want)
		}
	}
}

func TestRecoveryStudySmall(t *testing.T) {
	rows, err := RecoveryStudy(2, 51)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 plants x 2 strategies
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderRecovery(rows, 2)
	if !strings.Contains(out, "recovery") || !strings.Contains(out, "adaptive") {
		t.Error("RenderRecovery malformed")
	}
}

func TestThresholdSweepShape(t *testing.T) {
	pts, err := ThresholdSweep(6, 61, []float64{0.3, 1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// FP falls with τ; FN rises with τ.
	if pts[0].FP < pts[2].FP {
		t.Errorf("FP did not fall with τ: %+v", pts)
	}
	if pts[0].FN > pts[2].FN {
		t.Errorf("FN did not rise with τ: %+v", pts)
	}
	if _, err := ThresholdSweep(1, 1, []float64{0}); err == nil {
		t.Error("non-positive multiplier accepted")
	}
	out := RenderThresholdSweep(pts, 6)
	if !strings.Contains(out, "Threshold sweep") {
		t.Error("render malformed")
	}
}

func TestAllTracesCoversEveryCase(t *testing.T) {
	panels, err := AllTraces(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 15 {
		t.Fatalf("panels = %d, want 15", len(panels))
	}
	for _, p := range panels {
		if p.AdaptiveAlert < 0 {
			t.Errorf("%s/%s: adaptive never alerted", p.Simulator, p.Attack)
		}
		if p.FixedAlert >= 0 && p.AdaptiveAlert > p.FixedAlert {
			t.Errorf("%s/%s: adaptive %d later than fixed %d", p.Simulator, p.Attack, p.AdaptiveAlert, p.FixedAlert)
		}
	}
}

func TestDeadlineValidationNoViolations(t *testing.T) {
	rows, err := DeadlineValidation(6, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s: %d conservativeness violations", r.Simulator, r.Violations)
		}
		if r.MeanDeadline <= 0 {
			t.Errorf("%s: mean deadline %v", r.Simulator, r.MeanDeadline)
		}
	}
	out := RenderDeadlineValidation(rows)
	if !strings.Contains(out, "violations") {
		t.Error("render malformed")
	}
}

func TestMagnitudeSweepShape(t *testing.T) {
	pts, err := MagnitudeSweep(6, 78, []float64{0.25, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Tiny bias: harmless (few unsafe runs). Default bias: unsafe and the
	// fixed detector largely blind. Huge bias: everyone detects.
	if pts[0].UnsafeRuns > pts[1].UnsafeRuns {
		t.Errorf("unsafe runs should not fall with magnitude: %+v", pts)
	}
	if pts[2].FixedDetected < pts[1].FixedDetected {
		t.Errorf("fixed detection should rise with magnitude: %+v", pts)
	}
	if pts[1].AdaptiveDetected < pts[1].FixedDetected {
		t.Errorf("adaptive should dominate at the default magnitude: %+v", pts)
	}
	if _, err := MagnitudeSweep(1, 1, []float64{-1}); err == nil {
		t.Error("non-positive scale accepted")
	}
	out := RenderMagnitudeSweep(pts, 6)
	if !strings.Contains(out, "magnitude") {
		t.Error("render malformed")
	}
}

func TestOverheadRowsSane(t *testing.T) {
	rows, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FullStepNs <= 0 || r.DeadlineNs <= 0 || r.PrecomputeNs <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Simulator, r)
		}
		// The paper's viability requirement: the per-step cost must be a
		// tiny fraction of the control period (we allow up to 10% headroom
		// for noisy CI machines; in practice it is < 0.1%).
		if r.FullStepNs > 0.1*r.ControlPeriodNs {
			t.Errorf("%s: step cost %v ns exceeds 10%% of the %v ns period",
				r.Simulator, r.FullStepNs, r.ControlPeriodNs)
		}
	}
	out := RenderOverhead(rows)
	if !strings.Contains(out, "overhead") {
		t.Error("render malformed")
	}
}

func TestStealthyImpactStudy(t *testing.T) {
	rows, err := StealthyImpact(3, 99, []float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 plants x 2 alphas
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		lo, hi := rows[i], rows[i+1]
		if hi.StealthCeiling < lo.StealthCeiling {
			t.Errorf("%s: ceiling fell with alpha", lo.Simulator)
		}
		// On integrating plants the stealth drift dominates the noise, so
		// impact must grow with the budget; on strongly-regulated stable
		// plants the PID and noise can mask the ordering.
		if math.IsInf(hi.StealthCeiling, 1) && hi.MaxDeviation+1e-9 < lo.MaxDeviation {
			t.Errorf("%s: impact fell with alpha: %v vs %v", lo.Simulator, lo.MaxDeviation, hi.MaxDeviation)
		}
	}
	out := RenderStealthy(rows, 3)
	if !strings.Contains(out, "Stealthy") {
		t.Error("render malformed")
	}
}
