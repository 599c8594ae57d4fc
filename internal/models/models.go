// Package models defines the six physical systems of the evaluation: the
// five simulated LTI plants of Table 1 (aircraft pitch, vehicle turning,
// series RLC circuit, DC motor position, quadrotor) and the identified
// RC-car cruise-control model of the testbed (Sec. 6.2).
//
// The paper lists each plant's control step size δ, PID gains, input range
// U, uncertainty bound ε, safe set S, and detection threshold τ (Table 1)
// but not the A/B matrices; we instantiate the canonical textbook models its
// citations use (CTMS aircraft pitch and DC motor, a series RLC network, a
// first-order steering model, and the Sabatino linearized quadrotor),
// discretized at δ with zero-order hold.
//
// Two evaluation choices follow the paper's framing rather than explicit
// numbers it does not give:
//
//   - References operate near the safe-set boundary (the regime the paper
//     motivates: "if the current state of a physical system is close to the
//     unsafe region, lowering the detection delay is preferable").
//   - Attack magnitudes are below the fixed-window detectability limit
//     (onset spike diluted over w_m+1 samples stays under τ) while still
//     driving the plant into the unsafe set — the combination that produces
//     Table 2's contrast between timely adaptive detection and untimely
//     fixed-window detection.
//
// Sensor-noise amplitudes are chosen so that τ sits above the clean-run
// average residual, reproducing the qualitative Fig. 7 trade-off.
//
// ByName serves one registry, built once per process: every caller that
// names a plant gets the same *Model, so the detectors of every stream of
// that plant share one *lti.System and one set of reachability tables.
// Registry instances are shared and read-only. The constructors and All
// build private copies on every call, for the sweeps that change a field
// (w_m, τ) before running.
package models

import (
	"math"
	"sync"

	"repro/internal/control"
	"repro/internal/geom"
	"repro/internal/lti"
	"repro/internal/mat"
)

// AttackDefaults carries the per-plant, per-scenario attack parameters used
// by the evaluation campaigns (Sec. 6.1.1). Each scenario has its own onset
// so it can interact with the reference phase that makes it dangerous (e.g.
// delay attacks are harmful during transients, bias attacks near steady
// state).
type AttackDefaults struct {
	// Duration the attack stays active once started (0 = until run end).
	Duration int

	BiasStart int
	Bias      mat.Vec // sensor offset for the bias scenario

	DelayStart int
	DelayLag   int // lag in control steps for the delay scenario

	ReplayStart int
	RecordStart int // replay recording window [RecordStart, RecordStart+ReplayLen)
	ReplayLen   int
}

// Model bundles a plant with its Table 1 hyper-parameters and evaluation
// defaults. Controllers and detectors are constructed fresh per run. The
// instance ByName returns is shared by every caller in the process and
// must not be mutated; the constructors (AircraftPitch, ...) and All
// return private copies that a sweep may change before use.
type Model struct {
	Name string
	No   int // Table 1 simulator number (0 for the testbed)

	Sys *lti.System

	// Control loop.
	PID      [3]float64 // Kp, Ki, Kd from Table 1
	CtrlDim  int        // state dimension the PID tracks
	InputIdx int        // input channel the PID drives
	Ref      control.Reference
	X0       mat.Vec

	// Table 1 detection parameters.
	U    geom.Box // control input range
	Eps  float64  // per-step uncertainty bound ε (2-norm)
	Safe geom.Box // safe state set S
	Tau  mat.Vec  // detection threshold τ per dimension

	// Evaluation configuration.
	MaxWindow   int     // w_m, the maximum detection window (Sec. 4.3)
	RunLength   int     // steps per experiment
	SensorNoise mat.Vec // uniform measurement-noise amplitude per dimension
	// InitRadius is the estimate-uncertainty ball the Deadline Estimator
	// assumes around the trusted initial state (Sec. 3.3.1). Zero derives
	// it from SensorNoise; larger values make deadlines more conservative.
	InitRadius float64
	Attack     AttackDefaults
}

// Controller builds the plant's PID controller (fresh state).
func (m *Model) Controller() *control.PID {
	return control.NewPID(m.PID[0], m.PID[1], m.PID[2], m.Sys.Dt)
}

// EstimatorRadius returns the initial-set ball radius the deadline
// estimator should assume: InitRadius if set, else the sensor-noise norm.
func (m *Model) EstimatorRadius() float64 {
	if m.InitRadius > 0 {
		return m.InitRadius
	}
	return m.SensorNoise.Norm2()
}

// AircraftPitch returns simulator 1: the CTMS aircraft pitch model with
// states (α attack angle, q pitch rate, θ pitch angle) and elevator input,
// PID on θ. Safe set bounds θ ∈ [−2.5, 2.5]; the commanded pitch steps from
// a cruise attitude to an aggressive 2.35 rad climb near the boundary.
func AircraftPitch() *Model {
	ac := mat.FromRows([][]float64{
		{-0.313, 56.7, 0},
		{-0.0139, -0.426, 0},
		{0, 56.7, 0},
	})
	bc := mat.ColVec(mat.VecOf(0.232, 0.0203, 0))
	sys := lti.MustDiscretize(ac, bc, nil, 0.02)
	return &Model{
		Name:     "aircraft-pitch",
		No:       1,
		Sys:      sys,
		PID:      [3]float64{14, 0.8, 5.7},
		CtrlDim:  2,
		InputIdx: 0,
		Ref:      control.StepRef{Before: 1.6, After: 2.35, At0: 100},
		X0:       mat.NewVec(3),
		U:        geom.UniformBox(1, -7, 7),
		Eps:      7.8e-3,
		Safe: geom.NewBox(
			geom.Whole(), geom.Whole(), geom.NewInterval(-2.5, 2.5),
		),
		Tau:         mat.VecOf(0.012, 0.012, 0.012),
		MaxWindow:   40,
		RunLength:   400,
		SensorNoise: mat.VecOf(0.009, 0.009, 0.009),
		Attack: AttackDefaults{
			Duration:    0,
			BiasStart:   160, // at the 2.35 rad operating point
			Bias:        mat.VecOf(0, 0, -0.35),
			DelayStart:  70, // stale data across the step-100 climb command
			DelayLag:    25,
			ReplayStart: 200, // replays the settling climb near the boundary
			RecordStart: 130,
			ReplayLen:   60,
		},
	}
}

// VehicleTurning returns simulator 2: a first-order yaw-rate steering model
// ψ̇ = −a ψ + b δ, the turning plant of [13]. Safe set bounds the yaw rate
// to [−2, 2]; the reference commands a 1.7 rad/s turn near the boundary.
func VehicleTurning() *Model {
	ac := mat.Diag(-1.2)
	bc := mat.ColVec(mat.VecOf(2.4))
	sys := lti.MustDiscretize(ac, bc, nil, 0.02)
	return &Model{
		Name:        "vehicle-turning",
		No:          2,
		Sys:         sys,
		PID:         [3]float64{0.5, 7, 0},
		CtrlDim:     0,
		InputIdx:    0,
		Ref:         control.StepRef{Before: 0, After: 1.7, At0: 100},
		X0:          mat.NewVec(1),
		U:           geom.UniformBox(1, -3, 3),
		Eps:         7.5e-2,
		Safe:        geom.NewBox(geom.NewInterval(-2, 2)),
		Tau:         mat.VecOf(0.07),
		MaxWindow:   40,
		RunLength:   400,
		SensorNoise: mat.VecOf(0.04),
		Attack: AttackDefaults{
			Duration:    0,
			BiasStart:   160, // during the 1.7 rad/s turn
			Bias:        mat.VecOf(-0.6),
			DelayStart:  70, // stale data across the turn onset
			DelayLag:    25,
			ReplayStart: 90, // replays straight-line driving just before the turn
			RecordStart: 20,
			ReplayLen:   60,
		},
	}
}

// SeriesRLC returns simulator 3: a series RLC circuit with states (inductor
// current i, capacitor voltage v) driven by a source voltage, PID holding
// the capacitor voltage at 4.7 V near the 5 V safe bound. R = 1 Ω,
// L = 0.5 H, C = 0.1 F.
func SeriesRLC() *Model {
	const (
		r = 1.0
		l = 0.5
		c = 0.1
	)
	ac := mat.FromRows([][]float64{
		{-r / l, -1 / l},
		{1 / c, 0},
	})
	bc := mat.ColVec(mat.VecOf(1/l, 0))
	sys := lti.MustDiscretize(ac, bc, nil, 0.02)
	return &Model{
		Name:     "series-rlc",
		No:       3,
		Sys:      sys,
		PID:      [3]float64{5, 5, 0},
		CtrlDim:  1,
		InputIdx: 0,
		Ref:      control.StepRef{Before: 3.8, After: 4.7, At0: 100},
		X0:       mat.NewVec(2),
		U:        geom.UniformBox(1, -5, 5),
		Eps:      1.7e-2,
		Safe: geom.NewBox(
			geom.NewInterval(-3.5, 3.5), geom.NewInterval(-5, 5),
		),
		Tau:         mat.VecOf(0.04, 0.01),
		MaxWindow:   40,
		RunLength:   400,
		SensorNoise: mat.VecOf(0.004, 0.0028),
		Attack: AttackDefaults{
			Duration:    0,
			BiasStart:   160,
			Bias:        mat.VecOf(0, -0.35),
			DelayStart:  70,
			DelayLag:    25,
			ReplayStart: 200, // replays the settling charge near the 5 V bound
			RecordStart: 130,
			ReplayLen:   60,
		},
	}
}

// DCMotorPosition returns simulator 4: the CTMS DC motor position model with
// states (shaft angle θ, speed ω, armature current i), PID on θ. Safe set
// bounds θ ∈ [−4, 4]; the shaft is commanded to 3.4 rad near the boundary.
func DCMotorPosition() *Model {
	const (
		j = 0.01 // rotor inertia
		b = 0.1  // viscous friction
		k = 0.01 // motor constant
		r = 1.0  // armature resistance
		l = 0.5  // armature inductance
	)
	ac := mat.FromRows([][]float64{
		{0, 1, 0},
		{0, -b / j, k / j},
		{0, -k / l, -r / l},
	})
	bc := mat.ColVec(mat.VecOf(0, 0, 1/l))
	sys := lti.MustDiscretize(ac, bc, nil, 0.1)
	return &Model{
		Name:     "dc-motor",
		No:       4,
		Sys:      sys,
		PID:      [3]float64{11, 0, 5},
		CtrlDim:  0,
		InputIdx: 0,
		Ref:      control.StepRef{Before: 2.4, After: 3.4, At0: 100},
		X0:       mat.NewVec(3),
		U:        geom.UniformBox(1, -20, 20),
		Eps:      1.5e-1,
		Safe: geom.NewBox(
			geom.NewInterval(-4, 4), geom.Whole(), geom.Whole(),
		),
		Tau:         mat.VecOf(0.118, 0.118, 0.118),
		MaxWindow:   40,
		RunLength:   400,
		SensorNoise: mat.VecOf(0.05, 0.05, 0.05),
		Attack: AttackDefaults{
			Duration:    0,
			BiasStart:   160,
			Bias:        mat.VecOf(-0.8, 0, 0),
			DelayStart:  70,
			DelayLag:    25,
			ReplayStart: 200, // replays the settling swing near the boundary
			RecordStart: 130,
			ReplayLen:   60,
		},
	}
}

// Quadrotor returns simulator 5: the Sabatino linearized 12-state quadrotor
// (states x, y, z, u, v, w, φ, θ, ψ, p, q, r; inputs thrust and three body
// torques, normalized to unit mass and inertia), PID holding altitude z at
// 4.75 m under a 5 m ceiling. The paper's ε = 1.56e−15 makes the process
// effectively deterministic; measurement noise on the altitude channels
// supplies the run-to-run variation.
func Quadrotor() *Model {
	const g = 9.81
	ac := mat.NewDense(12, 12)
	// Position integrates velocity.
	ac.Set(0, 3, 1)
	ac.Set(1, 4, 1)
	ac.Set(2, 5, 1)
	// Linearized translational dynamics: u̇ = −gθ, v̇ = gφ.
	ac.Set(3, 7, -g)
	ac.Set(4, 6, g)
	// Attitude integrates body rates.
	ac.Set(6, 9, 1)
	ac.Set(7, 10, 1)
	ac.Set(8, 11, 1)
	bc := mat.NewDense(12, 4)
	bc.Set(5, 0, 1)  // ẇ = f_t / m (m = 1)
	bc.Set(9, 1, 1)  // ṗ = τ_x / I_x (I = 1)
	bc.Set(10, 2, 1) // q̇ = τ_y / I_y
	bc.Set(11, 3, 1) // ṙ = τ_z / I_z
	sys := lti.MustDiscretize(ac, bc, nil, 0.1)

	safeIvs := make([]geom.Interval, 12)
	tau := make(mat.Vec, 12)
	noise := make(mat.Vec, 12)
	for i := range safeIvs {
		safeIvs[i] = geom.Whole()
		tau[i] = 0.018
	}
	safeIvs[2] = geom.NewInterval(-5, 5) // altitude z
	noise[2] = 0.02
	noise[5] = 0.02
	biasOff := mat.NewVec(12)
	biasOff[2] = -0.3

	return &Model{
		Name:        "quadrotor",
		No:          5,
		Sys:         sys,
		PID:         [3]float64{0.8, 0, 1},
		CtrlDim:     2,
		InputIdx:    0,
		Ref:         control.StepRef{Before: 3.9, After: 4.75, At0: 100},
		X0:          mat.NewVec(12),
		U:           geom.UniformBox(4, -2, 2),
		Eps:         1.56e-15,
		Safe:        geom.NewBox(safeIvs...),
		Tau:         tau,
		MaxWindow:   40,
		RunLength:   400,
		SensorNoise: noise,
		Attack: AttackDefaults{
			Duration:    0,
			BiasStart:   170,
			Bias:        biasOff,
			DelayStart:  70,
			DelayLag:    25,
			ReplayStart: 205, // replays the settling climb near the ceiling
			RecordStart: 135,
			ReplayLen:   60,
		},
	}
}

// TestbedCar returns the identified RC-car cruise-control model of Sec. 6.2:
// a scalar discrete system x_{t+1} = 0.8435 x_t + 7.7919e−4 u_t with output
// y = 384.3402 x (speed in m/s). The published scenario: the vehicle cruises
// at 4 m/s, a +2.5 m/s bias hits the speed sensor at the end of step 79, the
// safe speed range is [2, 10] m/s, τ = 3.67e−3, u ∈ [0, 7.7].
//
// InitRadius is set so the deadline estimator reports the tightest deadline
// (0) at the 4 m/s cruise — the paper's observed behaviour on the testbed
// ("the estimator computes the tightest deadline and shrinks the window
// size"), reflecting how fast the strongly-damped car can traverse the safe
// range under its full input authority.
func TestbedCar() *Model {
	const cOut = 3.843402e2
	a := mat.Diag(8.435e-1)
	b := mat.ColVec(mat.VecOf(7.7919e-4))
	c := mat.FromRows([][]float64{{cOut}})
	sys := lti.MustNew(a, b, c, 0.05) // 20 Hz sensing
	refSpeed := 4.0 / cOut            // state-space set point for 4 m/s
	return &Model{
		Name:        "testbed-car",
		No:          0,
		Sys:         sys,
		PID:         [3]float64{900, 1800, 0},
		CtrlDim:     0,
		InputIdx:    0,
		Ref:         control.ConstantRef(refSpeed),
		X0:          mat.VecOf(refSpeed),
		U:           geom.UniformBox(1, 0, 7.7),
		Eps:         2.0e-6,
		Safe:        geom.NewBox(geom.NewInterval(2.0/cOut, 10.0/cOut)),
		Tau:         mat.VecOf(3.67e-3),
		MaxWindow:   30,
		RunLength:   200,
		SensorNoise: mat.VecOf(3e-4), // ≈0.12 m/s encoder jitter
		InitRadius:  5.2e-3,          // ≈2.0 m/s conservative estimate ball
		Attack: AttackDefaults{
			Duration:    0,
			BiasStart:   80, // "at the end of the 79th step"
			Bias:        mat.VecOf(2.5 / cOut),
			DelayStart:  80,
			DelayLag:    10,
			ReplayStart: 80,
			RecordStart: 20,
			ReplayLen:   40,
		},
	}
}

// All returns the five Table 1 simulators in paper order.
func All() []*Model {
	return []*Model{
		AircraftPitch(), VehicleTurning(), SeriesRLC(), DCMotorPosition(), Quadrotor(),
	}
}

// registry holds the instances ByName hands out: the five Table 1
// simulators in paper order, then the testbed car, built once per process.
var registry = sync.OnceValue(func() []*Model { return append(All(), TestbedCar()) })

// ByName returns the registry instance of the model with the given name
// (including "testbed-car"), or nil if unknown. Every call for a name
// returns the same *Model, so every detector built from it shares one
// *lti.System, and reach.Shared, which keys on that pointer, builds the
// plant's reachability tables once per process. The instance is shared
// and read-only: callers must not mutate it or anything it points to. A
// sweep that changes a field starts from a constructor or All, which
// return private copies.
func ByName(name string) *Model {
	for _, m := range registry() {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Names lists every registered model name in registry order — the valid
// values for ByName, used by the CLI tools' unknown-model diagnostics.
func Names() []string {
	ms := registry()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// inf is shorthand used by tests constructing unbounded expectations.
var inf = math.Inf(1)
