// Package metrics implements the paper's figures of merit: the Energy-Delay
// product family EDᵡP (operational cost, with X raising the weight of
// performance toward near-real-time constraints) and the Energy-Delay-Area
// family EDᵡAP (adding chip area as the capital-cost component, after Li et
// al.'s McPAT-based figure of merit the paper adopts).
package metrics

import (
	"math"

	"heterohadoop/internal/units"
)

// Sample is one measured (energy, delay, area) outcome to be scored.
type Sample struct {
	// Energy is the dynamic energy of the run.
	Energy units.Joules
	// Delay is the execution time.
	Delay units.Seconds
	// Area is the chip area of the platform (for the EDAP family).
	Area units.SquareMM
}

// EDxP returns Energy · Delayˣ (J·sˣ). X = 1 is the classic EDP; higher X
// weighs performance more heavily, modelling near-real-time constraints.
func (s Sample) EDxP(x int) float64 {
	return float64(s.Energy) * math.Pow(float64(s.Delay), float64(x))
}

// EDP returns Energy · Delay (J·s).
func (s Sample) EDP() float64 { return s.EDxP(1) }

// ED2P returns Energy · Delay² (J·s²).
func (s Sample) ED2P() float64 { return s.EDxP(2) }

// ED3P returns Energy · Delay³ (J·s³).
func (s Sample) ED3P() float64 { return s.EDxP(3) }

// EDxAP returns Energy · Delayˣ · Area (J·sˣ·mm²), the combined
// operational-plus-capital cost metric.
func (s Sample) EDxAP(x int) float64 {
	return s.EDxP(x) * float64(s.Area)
}

// EDAP returns Energy · Delay · Area.
func (s Sample) EDAP() float64 { return s.EDxAP(1) }

// ED2AP returns Energy · Delay² · Area.
func (s Sample) ED2AP() float64 { return s.EDxAP(2) }

// Ratio returns a/b, or 0 when b is 0 — used for the paper's little-vs-big
// normalized comparisons.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
