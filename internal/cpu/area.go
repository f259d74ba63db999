package cpu

import (
	"heterohadoop/internal/units"
)

// AreaBreakdown is a McPAT-flavoured decomposition of chip area into its
// major components, in mm². The paper takes its EDAP area inputs from Intel
// datasheets (Atom 160 mm², Xeon 216 mm²); this model estimates the same
// quantities from the architectural parameters, so capital-cost studies can
// explore hypothetical configurations (wider cores, bigger caches) instead
// of being limited to the two shipped parts.
type AreaBreakdown struct {
	// CoresArea covers all cores' logic: pipelines, register files,
	// schedulers and L1 caches.
	CoresArea units.SquareMM
	// CacheArea covers the shared outer cache levels (L2 onward).
	CacheArea units.SquareMM
	// UncoreArea covers the fabric, memory controllers and I/O.
	UncoreArea units.SquareMM
	// Total is the chip estimate.
	Total units.SquareMM
}

// Area model constants, calibrated on 22 nm-class parts so the two studied
// chips land near their datasheet areas. Out-of-order structures grow
// super-linearly with issue width (rename tables, schedulers, bypass
// networks scale roughly quadratically).
const (
	// baseCoreArea is the area of a minimal 1-wide in-order core with its
	// L1 caches.
	baseCoreArea = 1.6 // mm²
	// widthAreaFactor scales core logic with issueWidth².
	widthAreaFactor = 0.55 // mm² per issueWidth²
	// oooAreaOverhead multiplies core logic for out-of-order machinery.
	oooAreaOverhead = 1.5
	// sramDensity is cache area per MB (SRAM plus tags and control).
	sramDensity = 3.2 // mm² per MB
	// uncoreBase plus a per-core routing term covers fabric and I/O for a
	// socketed server chip; the microserver SoC carries its entire
	// platform hub (Ethernet, SATA, PCIe, USB) on die.
	uncoreBase    = 24.0 // mm²
	uncoreBaseSoC = 95.0 // mm²
	uncorePerCore = 2.2  // mm² per core
)

// EstimateArea computes the chip-area breakdown for a core configuration.
func EstimateArea(c Core) AreaBreakdown {
	coreLogic := baseCoreArea + widthAreaFactor*float64(c.IssueWidth*c.IssueWidth)
	if c.Kind == Big {
		coreLogic *= oooAreaOverhead
	}
	cores := coreLogic * float64(c.MaxCores)

	var outerCache float64
	for i, l := range c.Hierarchy.Levels {
		if i == 0 {
			continue // L1 is inside the core-logic estimate
		}
		sz := l.Size
		// The Atom's L2 entry is per core pair; Xeon's L2 is per core.
		// The hierarchy stores per-core-visible capacity, so multiply by
		// the sharing-adjusted instance count: approximate with one
		// instance per two cores for the little chip's shared L2 and one
		// per core for private L2s, and a single L3 instance.
		instances := 1.0
		if i == 1 {
			instances = float64(c.MaxCores)
			if c.Kind == Little {
				instances = float64(c.MaxCores) / 2
			}
		}
		outerCache += sramDensity * sz.MegaBytes() * instances
	}

	base := uncoreBase
	if c.SoC {
		base = uncoreBaseSoC
	}
	uncore := base + uncorePerCore*float64(c.MaxCores)

	return AreaBreakdown{
		CoresArea:  units.SquareMM(cores),
		CacheArea:  units.SquareMM(outerCache),
		UncoreArea: units.SquareMM(uncore),
		Total:      units.SquareMM(cores + outerCache + uncore),
	}
}
