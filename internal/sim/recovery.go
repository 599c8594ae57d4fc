package sim

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/recovery"
)

// RecoveryOutcome summarizes a run where detection hands off to the
// recovery controller of internal/recovery (the paper's companion works
// [13, 14]): on the first alarm the loop abandons the compromised sensors,
// dead-reckons the physical state from the last trusted estimate plus the
// recorded inputs, and steers back to the pre-attack reference with LQR.
type RecoveryOutcome struct {
	AttackStart int
	AlarmStep   int // -1 = never alarmed (no recovery engaged)
	// EverUnsafe reports whether the true state left the safe set at any
	// point during the run.
	EverUnsafe bool
	// FinalSafe reports whether the run ended inside the safe set.
	FinalSafe bool
	// FinalError is the distance of the controlled dimension from the
	// recovery target at the end of the run.
	FinalError float64
}

// RunWithRecovery executes a closed-loop run that switches from PID-on-
// estimates to sensor-free LQR recovery at the first alarm. The recovery
// target holds the controlled dimension at its pre-attack reference.
func RunWithRecovery(cfg Config) (*RecoveryOutcome, error) {
	m := cfg.Model
	det, err := Detector(cfg)
	if err != nil {
		return nil, err
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = m.RunLength
	}
	att := cfg.Attack
	if att == nil {
		att = attack.None{}
	} else {
		att.Reset()
	}

	sys := m.Sys
	procNoise := noise.NewBall(cfg.Seed*2+1, sys.StateDim(), m.Eps)
	sensNoise := noise.NewUniformBox(cfg.Seed*2+2, m.SensorNoise)
	pid := m.Controller()
	uLo, uHi := m.U.Lo(), m.U.Hi()

	// LQR design for the recovery phase. The cost weights the controlled
	// dimension heavily and the inputs mildly; enough for all six plants.
	q := mat.NewDense(sys.StateDim(), sys.StateDim())
	for i := 0; i < sys.StateDim(); i++ {
		q.Set(i, i, 0.01)
	}
	q.Set(m.CtrlDim, m.CtrlDim, 1)
	r := mat.NewDense(sys.InputDim(), sys.InputDim())
	for i := 0; i < sys.InputDim(); i++ {
		r.Set(i, i, 0.1)
	}
	lqr, err := recovery.InfiniteHorizonLQR(sys.A, sys.B, q, r, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("sim: recovery LQR design: %w", err)
	}

	out := &RecoveryOutcome{AttackStart: Onset(att), AlarmStep: -1}

	x := m.X0.Clone()
	u := mat.NewVec(sys.InputDim())
	var inputLog []mat.Vec
	var recoverer *recovery.Controller

	for t := 0; t < steps; t++ {
		if !m.Safe.Contains(x) {
			out.EverUnsafe = true
		}

		if recoverer != nil {
			// Sensor-free recovery phase.
			u = recoverer.Step()
		} else {
			measured := x.Add(sensNoise.Sample(t))
			estimate := att.Apply(t, measured)
			dec, err := det.Step(estimate, u)
			if err != nil {
				return out, fmt.Errorf("sim: step %d: %w", t, err)
			}

			if dec.Alarmed() && out.AttackStart >= 0 && t >= out.AttackStart {
				out.AlarmStep = t
				// Hand off: trusted estimate from just outside the window,
				// then catch up over the inputs applied since.
				trusted, ok := det.Log().TrustedEstimate(dec.Window)
				if ok {
					// The logger hands out a view into its slab;
					// the recovery controller outlives the entry's
					// retention, so take a copy.
					trusted = trusted.Clone()
				} else {
					trusted = estimate.Clone()
				}
				trustedStep := t - dec.Window - 1
				if trustedStep < 0 {
					trustedStep = 0
				}
				var recorded []mat.Vec
				if trustedStep < len(inputLog) {
					recorded = inputLog[trustedStep:]
				}
				target := mat.NewVec(sys.StateDim())
				target[m.CtrlDim] = m.Ref.At(out.AttackStart - 1)
				recoverer, err = recovery.NewController(sys, lqr, trusted, recorded, target, m.U)
				if err != nil {
					return nil, err
				}
				u = recoverer.Step()
			} else {
				ref := m.Ref.At(t)
				raw := pid.UpdateClamped(ref-estimate[m.CtrlDim], uLo[m.InputIdx], uHi[m.InputIdx])
				u = mat.NewVec(sys.InputDim())
				u[m.InputIdx] = raw
			}
		}

		inputLog = append(inputLog, u.Clone())
		x = sys.Step(x, u, procNoise.Sample(t))
	}

	out.FinalSafe = m.Safe.Contains(x)
	targetVal := m.Ref.At(maxInt(out.AttackStart-1, 0))
	diff := x[m.CtrlDim] - targetVal
	if diff < 0 {
		diff = -diff
	}
	out.FinalError = diff
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
