// Package energy models the Jetson TX2's power rails (GPU, CPU, SoC, DDR)
// and integrates a pipeline run's busy intervals into per-rail energy — the
// reproduction of the paper's Table III methodology (§V: rail power is
// sampled while the system runs, idle power is subtracted, and energy is
// power × running time; only activity above idle therefore contributes).
//
// Calibration. Rail powers are fitted to Table III's measurements:
//
//   - GPU active power grows with the DNN input size (3.95 W at 320×320 to
//     5.1 W at 608×608, matching the continuous rows: 36.25 Wh over the 7×
//     run and 68.84 Wh over the 10.3× run).
//   - Interleaved inference (the pipelined policies) reaches only ~59% of
//     the sustained GPU power: between kernels the GPU idles briefly while
//     the CPU pre/post-processes, and DVFS keeps clocks lower than under
//     the saturating back-to-back load of the continuous policies. This
//     reproduces MPDT-512's 3.53 Wh against continuous-320's 36.25 Wh.
//   - SoC and DDR draw in proportion to GPU and CPU activity
//     (E_SoC = 0.08·E_GPU + 0.05·E_CPU, E_DDR = 0.28·E_GPU + 0.17·E_CPU,
//     fitted to the MPDT-512 and continuous-320 columns).
package energy

import (
	"time"

	"adavp/internal/core"
	"adavp/internal/trace"
)

// Breakdown is per-rail energy in watt-hours.
type Breakdown struct {
	GPU, CPU, SoC, DDR float64
}

// Total returns the summed energy (the paper's "Total" row).
func (b Breakdown) Total() float64 { return b.GPU + b.CPU + b.SoC + b.DDR }

// Scale multiplies every rail by f (used to extrapolate a short simulated
// run to the paper's 78.5-minute dataset duration).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{GPU: b.GPU * f, CPU: b.CPU * f, SoC: b.SoC * f, DDR: b.DDR * f}
}

// Add returns the rail-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{GPU: b.GPU + o.GPU, CPU: b.CPU + o.CPU, SoC: b.SoC + o.SoC, DDR: b.DDR + o.DDR}
}

// Model holds the calibrated rail powers. The zero value is unusable; use
// DefaultModel.
type Model struct {
	// GPUActive is the sustained GPU power (watts) per model setting.
	GPUActive map[core.Setting]float64
	// PipelineGPUDuty derates GPU power for interleaved (non-continuous)
	// inference.
	PipelineGPUDuty float64
	// CPUDetectSide is CPU power during DNN pre/post-processing (active
	// whenever the GPU is busy).
	CPUDetectSide float64
	// CPUTrack is CPU power during feature extraction and optical flow.
	CPUTrack float64
	// CPUOverlay is CPU power during overlay drawing and display.
	CPUOverlay float64
	// SoCPerGPU, SoCPerCPU, DDRPerGPU, DDRPerCPU couple the shared rails to
	// compute activity.
	SoCPerGPU, SoCPerCPU float64
	DDRPerGPU, DDRPerCPU float64
}

// DefaultModel returns the Table III-calibrated model.
func DefaultModel() *Model {
	return &Model{
		GPUActive: map[core.Setting]float64{
			core.SettingTiny320: 1.55,
			core.Setting320:     3.95,
			core.Setting416:     4.25,
			core.Setting512:     4.60,
			core.Setting608:     5.10,
			core.Setting704:     5.40,
		},
		PipelineGPUDuty: 0.59,
		CPUDetectSide:   1.10,
		CPUTrack:        2.60,
		CPUOverlay:      1.50,
		SoCPerGPU:       0.08,
		SoCPerCPU:       0.05,
		DDRPerGPU:       0.28,
		DDRPerCPU:       0.17,
	}
}

// wattHours converts watts × duration to Wh.
func wattHours(watts float64, d time.Duration) float64 {
	return watts * d.Hours()
}

// Energy integrates one run's busy intervals into a per-rail breakdown.
// Continuous-policy runs (back-to-back inference) use sustained GPU power;
// pipelined runs use the interleaved duty factor.
func (m *Model) Energy(run *trace.Run) Breakdown {
	sustained := run.Policy == "Continuous"
	var b Breakdown
	for _, iv := range run.Busy {
		d := iv.Dur()
		if d <= 0 {
			continue
		}
		switch iv.Resource {
		case trace.ResourceGPU:
			p, ok := m.GPUActive[iv.Setting]
			if !ok {
				p = m.GPUActive[core.Setting608]
			}
			if !sustained {
				p *= m.PipelineGPUDuty
			}
			b.GPU += wattHours(p, d)
			// The detector thread's CPU-side work runs alongside inference.
			b.CPU += wattHours(m.CPUDetectSide, d)
		case trace.ResourceCPUTrack:
			b.CPU += wattHours(m.CPUTrack, d)
		case trace.ResourceCPUOverlay:
			b.CPU += wattHours(m.CPUOverlay, d)
		}
	}
	b.SoC = m.SoCPerGPU*b.GPU + m.SoCPerCPU*b.CPU
	b.DDR = m.DDRPerGPU*b.GPU + m.DDRPerCPU*b.CPU
	return b
}
