// Package units defines the typed physical quantities used throughout the
// simulator: data sizes, frequencies, durations, energies, powers and chip
// areas. Using distinct types keeps the timing/energy arithmetic honest at
// compile time (a Joule never silently becomes a Watt).
package units

import "fmt"

// Bytes is a data size in bytes.
type Bytes int64

// Common data-size units.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// MegaBytes returns the size in binary megabytes.
func (b Bytes) MegaBytes() float64 { return float64(b) / float64(MB) }

// String formats the size with a binary-prefix unit.
func (b Bytes) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Hertz is a clock frequency in cycles per second.
type Hertz float64

// GHz is the frequency unit the DVFS points are given in.
const GHz Hertz = 1e9

// GigaHertz returns the frequency in GHz.
func (h Hertz) GigaHertz() float64 { return float64(h) / float64(GHz) }

// String formats the frequency in GHz.
func (h Hertz) String() string { return fmt.Sprintf("%.1fGHz", h.GigaHertz()) }

// Seconds is a duration in seconds. A plain float keeps the discrete-event
// arithmetic simple.
type Seconds float64

// String formats the duration in seconds.
func (s Seconds) String() string { return fmt.Sprintf("%.3fs", float64(s)) }

// Joules is an energy in joules.
type Joules float64

// String formats the energy in joules.
func (j Joules) String() string { return fmt.Sprintf("%.2fJ", float64(j)) }

// Watts is a power in watts.
type Watts float64

// String formats the power in watts.
func (w Watts) String() string { return fmt.Sprintf("%.2fW", float64(w)) }

// Volts is an electrical potential in volts.
type Volts float64

// String formats the potential in volts.
func (v Volts) String() string { return fmt.Sprintf("%.3fV", float64(v)) }

// SquareMM is a silicon area in square millimetres, used by the capital-cost
// (EDAP family) metrics.
type SquareMM float64

// String formats the area in mm².
func (a SquareMM) String() string { return fmt.Sprintf("%.0fmm2", float64(a)) }

// Energy returns the energy dissipated by a constant power over a duration.
func Energy(p Watts, t Seconds) Joules { return Joules(float64(p) * float64(t)) }

// Power returns the average power of an energy spent over a duration.
// It returns 0 for non-positive durations.
func Power(e Joules, t Seconds) Watts {
	if t <= 0 {
		return 0
	}
	return Watts(float64(e) / float64(t))
}

// CyclesToTime converts a cycle count at a frequency into seconds.
// It returns 0 for non-positive frequencies.
func CyclesToTime(cycles float64, f Hertz) Seconds {
	if f <= 0 {
		return 0
	}
	return Seconds(cycles / float64(f))
}

// TimeToCycles converts seconds at a frequency into a cycle count.
func TimeToCycles(t Seconds, f Hertz) float64 { return float64(t) * float64(f) }
