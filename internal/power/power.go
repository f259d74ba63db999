// Package power models whole-node power the way the paper measures it: a
// Watts-up PRO meter on the wall socket, sampled at 1 Hz, with system idle
// power subtracted to leave dynamic dissipation. The model decomposes
// dynamic power into per-core switching power (C·V²·f scaled by activity),
// core leakage, uncore/fabric, DRAM and disk components, with a per-part
// DVFS voltage/frequency curve.
package power

import (
	"fmt"

	"heterohadoop/internal/units"
)

// DVFSPoint is one voltage/frequency operating point.
type DVFSPoint struct {
	F units.Hertz
	V units.Volts
}

// Model is the power model of one server node class.
type Model struct {
	// Name identifies the node class, e.g. "atom-c2758-node".
	Name string
	// Curve is the DVFS voltage/frequency curve, ascending in frequency.
	Curve []DVFSPoint
	// CoreDynamicNominal is one core's switching power at the top DVFS
	// point under full activity.
	CoreDynamicNominal units.Watts
	// CoreStatic is one core's leakage power at nominal voltage; leakage
	// scales linearly with voltage in this model.
	CoreStatic units.Watts
	// UncoreActive is the fabric/chipset power when the node is busy.
	UncoreActive units.Watts
	// DRAMActive is the DRAM power under full access pressure.
	DRAMActive units.Watts
	// DiskActive is the storage power under full I/O pressure.
	DiskActive units.Watts
	// IdleSystem is the wall power of the idle node. The paper subtracts
	// it from every reading; it is carried for completeness and for the
	// meter's absolute readings.
	IdleSystem units.Watts
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("power: model has no name")
	}
	if len(m.Curve) == 0 {
		return fmt.Errorf("power: %s: empty DVFS curve", m.Name)
	}
	for i, p := range m.Curve {
		if p.F <= 0 || p.V <= 0 {
			return fmt.Errorf("power: %s: non-positive DVFS point %+v", m.Name, p)
		}
		if i > 0 && (p.F <= m.Curve[i-1].F || p.V < m.Curve[i-1].V) {
			return fmt.Errorf("power: %s: DVFS curve not ascending at index %d", m.Name, i)
		}
	}
	if m.CoreDynamicNominal <= 0 {
		return fmt.Errorf("power: %s: core dynamic power must be positive", m.Name)
	}
	for _, w := range []units.Watts{m.CoreStatic, m.UncoreActive, m.DRAMActive, m.DiskActive, m.IdleSystem} {
		if w < 0 {
			return fmt.Errorf("power: %s: negative component power", m.Name)
		}
	}
	return nil
}

// Nominal returns the top DVFS point.
func (m Model) Nominal() DVFSPoint { return m.Curve[len(m.Curve)-1] }

// VoltageAt returns the operating voltage for frequency f, interpolating
// linearly between curve points and clamping outside the curve.
func (m Model) VoltageAt(f units.Hertz) units.Volts {
	c := m.Curve
	if f <= c[0].F {
		return c[0].V
	}
	if f >= c[len(c)-1].F {
		return c[len(c)-1].V
	}
	for i := 1; i < len(c); i++ {
		if f <= c[i].F {
			frac := float64(f-c[i-1].F) / float64(c[i].F-c[i-1].F)
			return c[i-1].V + units.Volts(frac*float64(c[i].V-c[i-1].V))
		}
	}
	return c[len(c)-1].V
}

// CoreDynamic returns one core's switching power at frequency f and the
// given activity factor (0..1, typically IPC utilization). Switching power
// scales as V²·f relative to the nominal point.
func (m Model) CoreDynamic(f units.Hertz, activity float64) units.Watts {
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	nom := m.Nominal()
	v := m.VoltageAt(f)
	scale := (float64(v) * float64(v) * float64(f)) / (float64(nom.V) * float64(nom.V) * float64(nom.F))
	return units.Watts(float64(m.CoreDynamicNominal) * scale * activity)
}

// CoreLeakage returns one core's leakage at frequency f's voltage.
func (m Model) CoreLeakage(f units.Hertz) units.Watts {
	nom := m.Nominal()
	return units.Watts(float64(m.CoreStatic) * float64(m.VoltageAt(f)) / float64(nom.V))
}

// Draw describes the node's load during one execution interval.
type Draw struct {
	// ActiveCores is the number of cores running tasks.
	ActiveCores int
	// Activity is the average core activity factor (0..1).
	Activity float64
	// MemPressure is the DRAM utilization (0..1).
	MemPressure float64
	// DiskPressure is the storage utilization (0..1).
	DiskPressure float64
	// F is the DVFS frequency.
	F units.Hertz
}

// Dynamic returns the node's dynamic (above-idle) power for a load. This is
// the quantity the paper reports after subtracting idle from the Watts-up
// reading.
func (m Model) Dynamic(d Draw) units.Watts {
	if d.ActiveCores < 0 {
		d.ActiveCores = 0
	}
	clamp01 := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	cores := float64(d.ActiveCores) * float64(m.CoreDynamic(d.F, d.Activity)+m.CoreLeakage(d.F))
	busy := 0.0
	if d.ActiveCores > 0 {
		busy = 1
	}
	uncore := busy * float64(m.UncoreActive)
	dram := clamp01(d.MemPressure) * float64(m.DRAMActive)
	disk := clamp01(d.DiskPressure) * float64(m.DiskActive)
	return units.Watts(cores + uncore + dram + disk)
}

// AtomNode returns the power model of the little-core microserver.
// Calibration: Atom C2758 has a 20 W TDP for 8 cores; measured node dynamic
// power for Hadoop runs lands in the 8–15 W range, giving the ~6–7× node
// power gap to the Xeon that the paper's EDP ratios imply.
func AtomNode() Model {
	return Model{
		Name: "atom-c2758-node",
		Curve: []DVFSPoint{
			{F: 1.2 * units.GHz, V: 0.85},
			{F: 1.4 * units.GHz, V: 0.90},
			{F: 1.6 * units.GHz, V: 0.95},
			{F: 1.8 * units.GHz, V: 1.00},
		},
		CoreDynamicNominal: 0.9,
		CoreStatic:         0.2,
		UncoreActive:       1.2,
		DRAMActive:         2.0,
		DiskActive:         2.5,
		IdleSystem:         28,
	}
}

// XeonNode returns the power model of the big-core server (dual E5-2420;
// the experiments exercise up to 8 cores of the pair).
func XeonNode() Model {
	return Model{
		Name: "xeon-e5-2420-node",
		Curve: []DVFSPoint{
			{F: 1.2 * units.GHz, V: 0.90},
			{F: 1.4 * units.GHz, V: 0.95},
			{F: 1.6 * units.GHz, V: 1.00},
			{F: 1.8 * units.GHz, V: 1.05},
		},
		CoreDynamicNominal: 10.0,
		CoreStatic:         1.5,
		UncoreActive:       10.0,
		DRAMActive:         6.0,
		DiskActive:         5.0,
		IdleSystem:         92,
	}
}

// Breakdown decomposes the node's dynamic power for a load into its
// components — the constituents the paper notes its wall-meter reading
// aggregates (cores, caches/uncore, main memory, disks).
type Breakdown struct {
	Cores  units.Watts
	Uncore units.Watts
	DRAM   units.Watts
	Disk   units.Watts
}

// DynamicBreakdown returns the per-component dynamic power for a load; the
// components sum to Dynamic(d).
func (m Model) DynamicBreakdown(d Draw) Breakdown {
	if d.ActiveCores < 0 {
		d.ActiveCores = 0
	}
	clamp01 := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	busy := 0.0
	if d.ActiveCores > 0 {
		busy = 1
	}
	return Breakdown{
		Cores:  units.Watts(float64(d.ActiveCores) * float64(m.CoreDynamic(d.F, d.Activity)+m.CoreLeakage(d.F))),
		Uncore: units.Watts(busy * float64(m.UncoreActive)),
		DRAM:   units.Watts(clamp01(d.MemPressure) * float64(m.DRAMActive)),
		Disk:   units.Watts(clamp01(d.DiskPressure) * float64(m.DiskActive)),
	}
}
