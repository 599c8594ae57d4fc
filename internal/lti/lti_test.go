package lti

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func scalarSys(t *testing.T, a, b, dt float64) *System {
	t.Helper()
	s, err := New(mat.Diag(a), mat.ColVec(mat.VecOf(b)), nil, dt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	a := mat.Identity(2)
	b := mat.NewDense(2, 1)
	if _, err := New(mat.NewDense(2, 3), b, nil, 0.1); err == nil {
		t.Error("non-square A accepted")
	}
	if _, err := New(a, mat.NewDense(3, 1), nil, 0.1); err == nil {
		t.Error("mismatched B accepted")
	}
	if _, err := New(a, b, mat.NewDense(1, 3), 0.1); err == nil {
		t.Error("mismatched C accepted")
	}
	if _, err := New(a, b, nil, 0); err == nil {
		t.Error("zero dt accepted")
	}
	s, err := New(a, b, nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.StateDim() != 2 || s.InputDim() != 1 || s.OutputDim() != 2 {
		t.Errorf("dims = %d/%d/%d", s.StateDim(), s.InputDim(), s.OutputDim())
	}
}

func TestDefaultCIsIdentity(t *testing.T) {
	s := scalarSys(t, 0.9, 0.1, 0.02)
	x := mat.VecOf(3)
	if got := s.Output(x); !got.Equal(x, 0) {
		t.Errorf("Output = %v, want %v", got, x)
	}
}

func TestStepKnown(t *testing.T) {
	s := scalarSys(t, 0.5, 2, 0.1)
	got := s.Step(mat.VecOf(4), mat.VecOf(1), mat.VecOf(0.25))
	// 0.5*4 + 2*1 + 0.25 = 4.25
	if !got.Equal(mat.VecOf(4.25), 1e-12) {
		t.Errorf("Step = %v", got)
	}
}

func TestStepNilDisturbanceIsNominal(t *testing.T) {
	s := scalarSys(t, 0.5, 2, 0.1)
	if got := s.Step(mat.VecOf(4), mat.VecOf(1), nil); !got.Equal(mat.VecOf(4), 1e-12) {
		t.Errorf("nominal Step = %v, want [4]", got)
	}
	if got := s.Predict(mat.VecOf(4), mat.VecOf(1)); !got.Equal(mat.VecOf(4), 1e-12) {
		t.Errorf("Predict = %v", got)
	}
}

func TestStepDimensionPanics(t *testing.T) {
	s := scalarSys(t, 1, 1, 1)
	for name, fn := range map[string]func(){
		"state": func() { s.Step(mat.VecOf(1, 2), mat.VecOf(1), nil) },
		"input": func() { s.Step(mat.VecOf(1), mat.VecOf(1, 2), nil) },
		"dist":  func() { s.Step(mat.VecOf(1), mat.VecOf(1), mat.VecOf(1, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDiscretizeScalarExact(t *testing.T) {
	// ẋ = -x + u, dt=0.1: Ad = e^{-0.1}, Bd = 1 - e^{-0.1}.
	s, err := Discretize(mat.Diag(-1), mat.ColVec(mat.VecOf(1)), nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	wantA := math.Exp(-0.1)
	wantB := 1 - math.Exp(-0.1)
	if math.Abs(s.A.At(0, 0)-wantA) > 1e-12 {
		t.Errorf("Ad = %v, want %v", s.A.At(0, 0), wantA)
	}
	if math.Abs(s.B.At(0, 0)-wantB) > 1e-12 {
		t.Errorf("Bd = %v, want %v", s.B.At(0, 0), wantB)
	}
}

func TestDiscretizeDoubleIntegrator(t *testing.T) {
	// ẋ1 = x2, ẋ2 = u. ZOH: Ad = [[1, dt],[0,1]], Bd = [dt²/2, dt].
	ac := mat.FromRows([][]float64{{0, 1}, {0, 0}})
	bc := mat.ColVec(mat.VecOf(0, 1))
	dt := 0.05
	s, err := Discretize(ac, bc, nil, dt)
	if err != nil {
		t.Fatal(err)
	}
	wantA := mat.FromRows([][]float64{{1, dt}, {0, 1}})
	if !s.A.Equal(wantA, 1e-12) {
		t.Errorf("Ad = %v", s.A)
	}
	if math.Abs(s.B.At(0, 0)-dt*dt/2) > 1e-12 || math.Abs(s.B.At(1, 0)-dt) > 1e-12 {
		t.Errorf("Bd = %v", s.B)
	}
}

func TestDiscretizeMatchesFineEuler(t *testing.T) {
	// ZOH discretization should match a very fine Euler integration of the
	// continuous system under a constant input.
	ac := mat.FromRows([][]float64{{-0.3, 1.2}, {-0.7, -0.5}})
	bc := mat.ColVec(mat.VecOf(0.5, 1))
	dt := 0.2
	s, err := Discretize(ac, bc, nil, dt)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.VecOf(1, -2)
	u := mat.VecOf(0.7)
	// Fine Euler.
	const sub = 200000
	h := dt / sub
	xe := x.Clone()
	for i := 0; i < sub; i++ {
		dx := ac.MulVec(xe).Add(bc.MulVec(u)).Scale(h)
		xe.AddInPlace(dx)
	}
	xd := s.Step(x, u, nil)
	if !xd.Equal(xe, 1e-4) {
		t.Errorf("ZOH=%v fine-Euler=%v", xd, xe)
	}
}

func TestDiscretizeValidation(t *testing.T) {
	if _, err := Discretize(mat.NewDense(2, 3), mat.NewDense(2, 1), nil, 0.1); err == nil {
		t.Error("non-square Ac accepted")
	}
	if _, err := Discretize(mat.Identity(2), mat.NewDense(3, 1), nil, 0.1); err == nil {
		t.Error("mismatched Bc accepted")
	}
	if _, err := Discretize(mat.Identity(2), mat.NewDense(2, 1), nil, -1); err == nil {
		t.Error("negative dt accepted")
	}
}

func TestSimulateTrajectory(t *testing.T) {
	s := scalarSys(t, 1, 1, 1) // x_{t+1} = x_t + u_t
	us := []mat.Vec{{1}, {2}, {3}}
	traj := s.Simulate(mat.VecOf(0), us, nil)
	want := []float64{0, 1, 3, 6}
	if len(traj) != 4 {
		t.Fatalf("traj length = %d", len(traj))
	}
	for i, w := range want {
		if math.Abs(traj[i][0]-w) > 1e-12 {
			t.Errorf("traj[%d] = %v, want %v", i, traj[i][0], w)
		}
	}
}

func TestSimulateWithDisturbances(t *testing.T) {
	s := scalarSys(t, 1, 0, 1)
	us := []mat.Vec{{0}, {0}}
	vs := []mat.Vec{{0.5}, nil}
	traj := s.Simulate(mat.VecOf(1), us, vs)
	if math.Abs(traj[2][0]-1.5) > 1e-12 {
		t.Errorf("traj end = %v, want 1.5", traj[2][0])
	}
}

func TestSimulateDoesNotAliasX0(t *testing.T) {
	s := scalarSys(t, 1, 1, 1)
	x0 := mat.VecOf(7)
	traj := s.Simulate(x0, []mat.Vec{{1}}, nil)
	traj[0][0] = -1
	if x0[0] != 7 {
		t.Error("Simulate aliased x0")
	}
}

func TestMustNewPanicsOnBad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(mat.NewDense(2, 3), mat.NewDense(2, 1), nil, 1)
}

// TestPredictBatchToBitIdenticalToPredictTo pins the fleet batch-kernel
// contract on a real discretized plant: every column of the batched
// prediction must carry exactly the bits of a standalone PredictTo call.
func TestPredictBatchToBitIdenticalToPredictTo(t *testing.T) {
	ac := mat.FromRows([][]float64{
		{-0.313, 56.7, 0},
		{-0.0139, -0.426, 0},
		{0, 56.7, 0},
	})
	bc := mat.ColVec(mat.VecOf(0.232, 0.0203, 0))
	sys := MustDiscretize(ac, bc, nil, 0.02)

	const n = 300 // crosses the kernels' internal cache tile
	xb := mat.NewBatch(sys.StateDim(), n)
	ub := mat.NewBatch(sys.InputDim(), n)
	for s := 0; s < n; s++ {
		for j := 0; j < sys.StateDim(); j++ {
			xb.Set(j, s, math.Sin(float64(7*s+j))*float64(j+1))
		}
		for j := 0; j < sys.InputDim(); j++ {
			ub.Set(j, s, math.Cos(float64(3*s+j)))
		}
	}
	pb := mat.NewBatch(sys.StateDim(), n)
	sys.PredictBatchTo(pb, xb, ub)

	x := mat.NewVec(sys.StateDim())
	u := mat.NewVec(sys.InputDim())
	want := mat.NewVec(sys.StateDim())
	for s := 0; s < n; s++ {
		for j := range x {
			x[j] = xb.At(j, s)
		}
		for j := range u {
			u[j] = ub.At(j, s)
		}
		sys.PredictTo(want, x, u)
		for j := range want {
			if got := pb.At(j, s); math.Float64bits(got) != math.Float64bits(want[j]) {
				t.Fatalf("col %d dim %d: batch %v != serial %v", s, j, got, want[j])
			}
		}
	}
}

// TestPredictBatchToAllocFree pins the fused sweep's steady-state cost: a
// whole-fleet prediction pass performs zero heap allocations, including on
// batches with a ragged final tile.
func TestPredictBatchToAllocFree(t *testing.T) {
	sys := MustDiscretize(mat.Diag(-0.5, -0.25), mat.ColVec(mat.VecOf(1, 0.5)), nil, 0.05)
	const n = 300 // crosses the tile boundary with a ragged remainder
	xb := mat.NewBatch(sys.StateDim(), n)
	ub := mat.NewBatch(sys.InputDim(), n)
	pb := mat.NewBatch(sys.StateDim(), n)
	if allocs := testing.AllocsPerRun(50, func() {
		sys.PredictBatchTo(pb, xb, ub)
	}); allocs != 0 {
		t.Errorf("PredictBatchTo allocates %v per run, want 0", allocs)
	}
}
