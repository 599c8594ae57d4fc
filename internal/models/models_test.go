package models

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mat"
)

func TestAllReturnsFiveSimulatorsInPaperOrder(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() returned %d models", len(all))
	}
	wantNames := []string{"aircraft-pitch", "vehicle-turning", "series-rlc", "dc-motor", "quadrotor"}
	for i, m := range all {
		if m.Name != wantNames[i] {
			t.Errorf("model %d = %q, want %q", i, m.Name, wantNames[i])
		}
		if m.No != i+1 {
			t.Errorf("%s No = %d, want %d", m.Name, m.No, i+1)
		}
	}
}

func TestByName(t *testing.T) {
	if m := ByName("quadrotor"); m == nil || m.Name != "quadrotor" {
		t.Error("ByName(quadrotor) failed")
	}
	if m := ByName("testbed-car"); m == nil || m.No != 0 {
		t.Error("ByName(testbed-car) failed")
	}
	if ByName("warp-drive") != nil {
		t.Error("unknown name should return nil")
	}
	// ByName serves one registry instance per name, so every stream of a
	// plant shares its *lti.System (and thus its reachability tables).
	wantNames := []string{"aircraft-pitch", "vehicle-turning", "series-rlc", "dc-motor", "quadrotor", "testbed-car"}
	if got := Names(); !slices.Equal(got, wantNames) {
		t.Errorf("Names() = %v, want %v", got, wantNames)
	}
	for _, name := range Names() {
		a, b := ByName(name), ByName(name)
		if a == nil || a != b {
			t.Errorf("ByName(%q) returned distinct instances %p and %p", name, a, b)
		}
	}
	// The constructors and All still hand out private copies.
	if Quadrotor() == ByName("quadrotor") || All()[0] == ByName("aircraft-pitch") {
		t.Error("constructors must not return the shared registry instance")
	}
}

// Table 1 row checks: δ, PID, U, ε, τ must match the paper.
func TestTable1Parameters(t *testing.T) {
	cases := []struct {
		m     *Model
		dt    float64
		pid   [3]float64
		uLo   float64
		uHi   float64
		eps   float64
		tau0  float64
		nDims int
	}{
		{AircraftPitch(), 0.02, [3]float64{14, 0.8, 5.7}, -7, 7, 7.8e-3, 0.012, 3},
		{VehicleTurning(), 0.02, [3]float64{0.5, 7, 0}, -3, 3, 7.5e-2, 0.07, 1},
		{SeriesRLC(), 0.02, [3]float64{5, 5, 0}, -5, 5, 1.7e-2, 0.04, 2},
		{DCMotorPosition(), 0.1, [3]float64{11, 0, 5}, -20, 20, 1.5e-1, 0.118, 3},
		{Quadrotor(), 0.1, [3]float64{0.8, 0, 1}, -2, 2, 1.56e-15, 0.018, 12},
	}
	for _, c := range cases {
		if c.m.Sys.Dt != c.dt {
			t.Errorf("%s dt = %v, want %v", c.m.Name, c.m.Sys.Dt, c.dt)
		}
		if c.m.PID != c.pid {
			t.Errorf("%s PID = %v, want %v", c.m.Name, c.m.PID, c.pid)
		}
		if c.m.U.Interval(0).Lo != c.uLo || c.m.U.Interval(0).Hi != c.uHi {
			t.Errorf("%s U = %v, want [%v, %v]", c.m.Name, c.m.U, c.uLo, c.uHi)
		}
		if c.m.Eps != c.eps {
			t.Errorf("%s eps = %v, want %v", c.m.Name, c.m.Eps, c.eps)
		}
		if len(c.m.Tau) != c.nDims {
			t.Errorf("%s tau has %d dims, want %d", c.m.Name, len(c.m.Tau), c.nDims)
		}
		for i, tv := range c.m.Tau {
			// Quadrotor and aircraft use a uniform τ; RLC differs by dim.
			if i == 0 && math.Abs(tv-c.tau0) > 1e-12 {
				t.Errorf("%s tau[0] = %v, want %v", c.m.Name, tv, c.tau0)
			}
		}
	}
}

func TestTable1SafeSets(t *testing.T) {
	a := AircraftPitch()
	if !a.Safe.Contains(mat.VecOf(1e9, -1e9, 0)) {
		t.Error("aircraft safe set should be unbounded in α, q")
	}
	if a.Safe.Contains(mat.VecOf(0, 0, 2.6)) || !a.Safe.Contains(mat.VecOf(0, 0, 2.5)) {
		t.Error("aircraft θ bound wrong")
	}
	v := VehicleTurning()
	if v.Safe.Contains(mat.VecOf(2.1)) || !v.Safe.Contains(mat.VecOf(-2)) {
		t.Error("vehicle safe bound wrong")
	}
	r := SeriesRLC()
	if r.Safe.Contains(mat.VecOf(3.6, 0)) || r.Safe.Contains(mat.VecOf(0, 5.1)) {
		t.Error("RLC safe bounds wrong")
	}
	d := DCMotorPosition()
	if d.Safe.Contains(mat.VecOf(4.1, 0, 0)) || !d.Safe.Contains(mat.VecOf(0, 1e9, -1e9)) {
		t.Error("DC motor safe bounds wrong")
	}
	q := Quadrotor()
	bad := mat.NewVec(12)
	bad[2] = 5.2
	if q.Safe.Contains(bad) {
		t.Error("quadrotor altitude bound wrong")
	}
}

func TestTestbedCarIdentifiedModel(t *testing.T) {
	m := TestbedCar()
	if math.Abs(m.Sys.A.At(0, 0)-8.435e-1) > 1e-12 {
		t.Errorf("A = %v", m.Sys.A.At(0, 0))
	}
	if math.Abs(m.Sys.B.At(0, 0)-7.7919e-4) > 1e-12 {
		t.Errorf("B = %v", m.Sys.B.At(0, 0))
	}
	if math.Abs(m.Sys.C.At(0, 0)-3.843402e2) > 1e-9 {
		t.Errorf("C = %v", m.Sys.C.At(0, 0))
	}
	// Safe range [2, 10] m/s mapped through C.
	const cOut = 3.843402e2
	if math.Abs(m.Safe.Interval(0).Lo-2/cOut) > 1e-12 ||
		math.Abs(m.Safe.Interval(0).Hi-10/cOut) > 1e-12 {
		t.Errorf("safe range = %v", m.Safe)
	}
	if m.Tau[0] != 3.67e-3 {
		t.Errorf("tau = %v", m.Tau[0])
	}
	if m.U.Interval(0).Lo != 0 || m.U.Interval(0).Hi != 7.7 {
		t.Errorf("U = %v", m.U)
	}
	// Attack: +2.5 m/s at step 80 ("end of the 79th step").
	if m.Attack.BiasStart != 80 {
		t.Errorf("bias start = %d", m.Attack.BiasStart)
	}
	if math.Abs(m.Attack.Bias[0]-2.5/cOut) > 1e-12 {
		t.Errorf("bias = %v", m.Attack.Bias[0])
	}
}

func TestModelShapesConsistent(t *testing.T) {
	for _, m := range append(All(), TestbedCar()) {
		n := m.Sys.StateDim()
		if m.Safe.Dim() != n {
			t.Errorf("%s: safe dim %d != %d", m.Name, m.Safe.Dim(), n)
		}
		if len(m.Tau) != n {
			t.Errorf("%s: tau dim %d != %d", m.Name, len(m.Tau), n)
		}
		if len(m.SensorNoise) != n {
			t.Errorf("%s: sensor noise dim %d != %d", m.Name, len(m.SensorNoise), n)
		}
		if len(m.X0) != n {
			t.Errorf("%s: x0 dim %d != %d", m.Name, len(m.X0), n)
		}
		if m.U.Dim() != m.Sys.InputDim() {
			t.Errorf("%s: U dim %d != input dim %d", m.Name, m.U.Dim(), m.Sys.InputDim())
		}
		if m.CtrlDim < 0 || m.CtrlDim >= n {
			t.Errorf("%s: ctrl dim %d out of range", m.Name, m.CtrlDim)
		}
		if m.InputIdx < 0 || m.InputIdx >= m.Sys.InputDim() {
			t.Errorf("%s: input idx %d out of range", m.Name, m.InputIdx)
		}
		if m.MaxWindow < 1 || m.RunLength <= m.MaxWindow {
			t.Errorf("%s: window/run config inconsistent", m.Name)
		}
		if !m.Safe.Contains(m.X0) {
			t.Errorf("%s: x0 outside safe set", m.Name)
		}
		if len(m.Attack.Bias) != n {
			t.Errorf("%s: bias dim %d != %d", m.Name, len(m.Attack.Bias), n)
		}
		if m.Attack.RecordStart+m.Attack.ReplayLen > m.Attack.ReplayStart {
			t.Errorf("%s: replay recording overlaps attack", m.Name)
		}
		if m.EstimatorRadius() <= 0 {
			t.Errorf("%s: estimator radius %v", m.Name, m.EstimatorRadius())
		}
	}
}

func TestControllerIsFreshPerCall(t *testing.T) {
	m := VehicleTurning()
	c1 := m.Controller()
	c1.Update(1)
	c2 := m.Controller()
	if c1.Update(1) == c2.Update(1) {
		t.Error("controllers appear to share state (integral should differ)")
	}
}

func TestDiscretizationStable(t *testing.T) {
	// All plant discretizations must produce finite matrices, and the
	// closed-loop-relevant spectral radius proxy (operator norm of A^k for
	// moderate k) must stay finite.
	for _, m := range append(All(), TestbedCar()) {
		a40 := m.Sys.A.Pow(40)
		if math.IsNaN(a40.NormInf()) || math.IsInf(a40.NormInf(), 0) {
			t.Errorf("%s: A^40 not finite", m.Name)
		}
	}
}

func TestPlantsHaveRequiredStructuralProperties(t *testing.T) {
	// The recovery LQR needs controllability of the plant input path and
	// the observer extension needs observability; all evaluation plants
	// (which use full state output) must satisfy both.
	for _, m := range append(All(), TestbedCar()) {
		if !m.Sys.IsObservable() {
			t.Errorf("%s: not observable", m.Name)
		}
	}
	// Fully-actuated-enough plants for the LQR study.
	for _, name := range []string{"vehicle-turning", "series-rlc", "dc-motor", "testbed-car"} {
		m := ByName(name)
		if !m.Sys.IsControllable() {
			t.Errorf("%s: not controllable", name)
		}
	}
}
