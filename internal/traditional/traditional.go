// Package traditional provides the non-Hadoop baselines of the paper's
// Figs 1-2: suite-average profiles standing in for SPEC CPU2006 (single-
// threaded CPU/memory stress) and PARSEC 2.1 (parallel shared-memory
// kernels). The paper only uses suite averages (IPC and EDxP ratios),
// which is what these profiles are calibrated to reproduce in shape:
// traditional code achieves much higher IPC than Hadoop on both cores, and
// the big core's advantage is larger on traditional code.
package traditional

import (
	"fmt"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/isa"
	"heterohadoop/internal/metrics"
	"heterohadoop/internal/power"
	"heterohadoop/internal/units"
)

// Suite identifies a traditional benchmark suite.
type Suite int

// Suites.
const (
	SPEC Suite = iota
	PARSEC
)

// String returns the suite name.
func (s Suite) String() string {
	if s == SPEC {
		return "spec2006"
	}
	return "parsec2.1"
}

// Profile returns the suite-average resource profile.
func (s Suite) Profile() isa.Profile {
	switch s {
	case SPEC:
		// Industry-standard CPU stress: high ILP, hot loops mostly cache
		// resident, but with enough memory pressure to expose the little
		// core's shallow hierarchy.
		return isa.Profile{
			Name:                 "spec2006/avg",
			InstructionsPerByte:  1, // work is specified in instructions, not bytes
			Mix:                  isa.Mix{isa.IntALU: 0.40, isa.FPALU: 0.14, isa.Load: 0.22, isa.Store: 0.10, isa.Branch: 0.14},
			Mem:                  isa.MemBehavior{WorkingSet: 256 * units.KB, Locality: 0.35, CompulsoryMissRatio: 0.002, Dependence: 0.25},
			BranchMispredictRate: 0.02,
			ILP:                  3.4,
		}
	default:
		// Parallel kernels: slightly lower ILP, more sharing traffic.
		return isa.Profile{
			Name:                 "parsec2.1/avg",
			InstructionsPerByte:  1,
			Mix:                  isa.Mix{isa.IntALU: 0.38, isa.FPALU: 0.16, isa.Load: 0.24, isa.Store: 0.10, isa.Branch: 0.12},
			Mem:                  isa.MemBehavior{WorkingSet: 384 * units.KB, Locality: 0.35, CompulsoryMissRatio: 0.004, Dependence: 0.3},
			BranchMispredictRate: 0.025,
			ILP:                  2.9,
		}
	}
}

// Measurement is a suite run outcome on one platform.
type Measurement struct {
	Suite  Suite
	Core   string
	IPC    float64
	Time   units.Seconds
	Power  units.Watts
	Sample metrics.Sample
}

// referenceInstructions is the nominal dynamic instruction count of a suite
// run used for EDxP comparisons (absolute scale cancels in ratios).
const referenceInstructions = 1e12

// Measure runs the suite-average profile on the core at frequency f with
// all cores of the node busy (the paper runs the multiprogrammed/parallel
// suites loaded) and returns time, power and the cost-metric sample.
func Measure(core cpu.Core, pm power.Model, s Suite, f units.Hertz) (Measurement, error) {
	if !core.SupportsFrequency(f) {
		return Measurement{}, fmt.Errorf("traditional: %s does not support %v", core.Name, f)
	}
	// Express the fixed instruction budget as bytes for the profile
	// contract (1 instruction per byte).
	work := units.Bytes(referenceInstructions / float64(core.MaxCores))
	timing, err := core.Run(s.Profile(), work, f)
	if err != nil {
		return Measurement{}, err
	}
	draw := power.Draw{
		ActiveCores:  core.MaxCores,
		Activity:     0.9,
		MemPressure:  0.4,
		DiskPressure: 0.02,
		F:            f,
	}
	p := pm.Dynamic(draw)
	e := units.Energy(p, timing.Time)
	return Measurement{
		Suite:  s,
		Core:   core.Name,
		IPC:    timing.IPC,
		Time:   timing.Time,
		Power:  p,
		Sample: metrics.Sample{Energy: e, Delay: timing.Time, Area: core.Area},
	}, nil
}
