// Package energy maps sampled phase resource deltas (obs.ResourceDelta)
// through the paper's node power models (internal/power) into per-phase
// joule estimates — the software analogue of the Watts-up-PRO wall meter
// the study reads. A Profile pairs a power.Model with the chip parameters
// of one core class (internal/cpu); its PhaseJoules implements
// obs.EnergyModel, so a Collector can aggregate live energy series and a
// tracer run can attribute joules to the paper's four phase buckets.
//
// The estimate is deliberately first-order: per-phase CPU utilization
// drives active-core count and activity, allocation rate drives DRAM
// pressure, and spill/segment IO rate drives disk pressure, each
// normalized by the profile's nominal bandwidths and clamped to [0,1] by
// the model. It is a model, not a meter — but it is the same model family
// the repo's simulator side (internal/power) already calibrates to the
// paper's measured node powers, so big-vs-little comparisons are anchored.
package energy

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/power"
	"heterohadoop/internal/units"
)

// Profile describes one node class for energy estimation: the power model
// plus the parameters that turn a ResourceDelta into a power.Draw.
type Profile struct {
	// Class names the core class ("big", "little", or a custom name);
	// events and exported series are labelled with it.
	Class string `json:"class"`
	// Model is the node power model (see power.AtomNode / power.XeonNode).
	Model power.Model `json:"model"`
	// Cores caps the active-core estimate (chip core count).
	Cores int `json:"cores"`
	// Frequency is the operating DVFS point fed to the model.
	Frequency units.Hertz `json:"frequency"`
	// DiskBandwidth and MemBandwidth are nominal full-pressure rates
	// (bytes/second) used to normalize a phase's IO and allocation rates
	// into the model's [0,1] pressure inputs.
	DiskBandwidth units.Bytes `json:"disk_bandwidth"`
	MemBandwidth  units.Bytes `json:"mem_bandwidth"`
}

// Big returns the big-core profile: the paper's Xeon E5-2420 node.
func Big() *Profile {
	return &Profile{
		Class:         "big",
		Model:         power.XeonNode(),
		Cores:         cpu.XeonE52420().MaxCores,
		Frequency:     cpu.XeonE52420().NominalFrequency,
		DiskBandwidth: 200 * units.MB,
		MemBandwidth:  25 * units.GB,
	}
}

// Little returns the little-core profile: the paper's Atom C2758
// microserver node.
func Little() *Profile {
	return &Profile{
		Class:         "little",
		Model:         power.AtomNode(),
		Cores:         cpu.AtomC2758().MaxCores,
		Frequency:     cpu.AtomC2758().NominalFrequency,
		DiskBandwidth: 100 * units.MB,
		MemBandwidth:  6 * units.GB,
	}
}

// Select resolves a -power-profile flag value: "big" (also the empty
// default) and "little" name the built-in paper profiles; anything else is
// read as a JSON profile file.
func Select(s string) (*Profile, error) {
	switch s {
	case "", "big":
		return Big(), nil
	case "little":
		return Little(), nil
	}
	return Load(s)
}

// Load reads and validates a JSON-encoded Profile.
func Load(path string) (*Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("energy: %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("energy: %s: %w", path, err)
	}
	return &p, nil
}

// Validate checks the profile parameters.
func (p *Profile) Validate() error {
	if p.Class == "" {
		return fmt.Errorf("profile has no class name")
	}
	if p.Cores < 1 {
		return fmt.Errorf("profile %q: cores must be >= 1", p.Class)
	}
	if p.Frequency <= 0 {
		return fmt.Errorf("profile %q: frequency must be positive", p.Class)
	}
	if p.DiskBandwidth <= 0 || p.MemBandwidth <= 0 {
		return fmt.Errorf("profile %q: bandwidths must be positive", p.Class)
	}
	return p.Model.Validate()
}

// ClassName implements obs.EnergyModel.
func (p *Profile) ClassName() string { return p.Class }

// PhaseJoules implements obs.EnergyModel: it converts one phase interval's
// resource delta into a node power draw and integrates it over the
// interval's wall time. Zero-duration intervals estimate zero.
func (p *Profile) PhaseJoules(ev obs.PhaseEvent) float64 {
	wall := ev.Duration.Seconds()
	if wall <= 0 {
		return 0
	}
	util := ev.Res.CPU.Seconds() / wall
	if util < 0 {
		util = 0
	}
	active := int(math.Ceil(util))
	if active > p.Cores {
		active = p.Cores
	}
	activity := 0.0
	if active > 0 {
		activity = util / float64(active)
	}
	d := power.Draw{
		ActiveCores:  active,
		Activity:     activity,
		MemPressure:  (float64(ev.Res.AllocBytes) / wall) / float64(p.MemBandwidth),
		DiskPressure: (float64(ev.Res.ReadBytes+ev.Res.WrittenBytes) / wall) / float64(p.DiskBandwidth),
		F:            p.Frequency,
	}
	return float64(p.Model.Dynamic(d)) * wall
}
