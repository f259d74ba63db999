// Package isa defines the machine-independent description of work that the
// core timing models consume: abstract instruction classes, dynamic
// instruction mixes, and per-phase resource profiles. A profile captures what
// a workload *does* (instructions per byte, memory behaviour, branchiness)
// without reference to any particular core, so the same profile can be timed
// on the big Xeon-like and little Atom-like models.
package isa

import (
	"fmt"
	"sort"

	"heterohadoop/internal/units"
)

// Class is an abstract dynamic-instruction class.
type Class int

// Instruction classes. The set is deliberately coarse: the timing model only
// distinguishes memory operations (which can stall), branches (which can
// mispredict), and everything else (which only contends for issue slots).
const (
	IntALU Class = iota // integer arithmetic/logic, address generation
	FPALU               // floating-point arithmetic
	Load                // memory read
	Store               // memory write
	Branch              // conditional and unconditional control flow
	numClasses
)

// String returns the conventional short name of the class.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "int"
	case FPALU:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Mix is a dynamic instruction mix: the fraction of executed instructions in
// each class. A valid mix has non-negative entries summing to 1.
type Mix map[Class]float64

// Validate reports whether the mix entries are non-negative and sum to 1
// within a small tolerance.
func (m Mix) Validate() error {
	sum := 0.0
	for c, f := range m {
		if c < 0 || c >= numClasses {
			return fmt.Errorf("isa: unknown instruction class %d", int(c))
		}
		if f < 0 {
			return fmt.Errorf("isa: negative fraction %v for class %v", f, c)
		}
		sum += f
	}
	const tol = 1e-6
	if sum < 1-tol || sum > 1+tol {
		return fmt.Errorf("isa: mix fractions sum to %v, want 1", sum)
	}
	return nil
}

// MemFraction returns the fraction of instructions that access memory.
func (m Mix) MemFraction() float64 { return m[Load] + m[Store] }

// String formats the mix deterministically in class order.
func (m Mix) String() string {
	classes := make([]Class, 0, len(m))
	for c := range m {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	s := "{"
	for i, c := range classes {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v:%.2f", c, m[c])
	}
	return s + "}"
}

// MemBehavior describes the memory-locality characteristics the analytic
// cache model needs: how big the hot data is and how steeply the miss ratio
// falls as cache capacity grows.
type MemBehavior struct {
	// WorkingSet is the characteristic hot-data footprint of one task.
	WorkingSet units.Bytes
	// Locality is the power-law exponent of the miss curve: the miss ratio
	// of a cache of capacity C is roughly (WorkingSet/C)^Locality (clamped).
	// Cache-friendly code has Locality well above 1; streaming code sits
	// near or below 0.5.
	Locality float64
	// CompulsoryMissRatio is the floor the miss ratio never goes below,
	// representing cold/streaming misses that no capacity removes.
	CompulsoryMissRatio float64
	// Dependence is the fraction of misses on serial dependence chains
	// (pointer chasing, merge comparisons) that neither prefetchers nor
	// memory-level parallelism can overlap. Streaming scans sit near 0;
	// sort/merge phases near 1.
	Dependence float64
}

// Validate checks the behaviour parameters for sanity.
func (b MemBehavior) Validate() error {
	if b.WorkingSet <= 0 {
		return fmt.Errorf("isa: working set must be positive, got %v", b.WorkingSet)
	}
	if b.Locality <= 0 {
		return fmt.Errorf("isa: locality exponent must be positive, got %v", b.Locality)
	}
	if b.CompulsoryMissRatio < 0 || b.CompulsoryMissRatio > 1 {
		return fmt.Errorf("isa: compulsory miss ratio %v out of [0,1]", b.CompulsoryMissRatio)
	}
	if b.Dependence < 0 || b.Dependence > 1 {
		return fmt.Errorf("isa: dependence %v out of [0,1]", b.Dependence)
	}
	return nil
}

// Profile is the machine-independent resource profile of one execution phase
// of a workload: how much work it does per byte of input and how that work
// behaves on a memory hierarchy.
type Profile struct {
	// Name identifies the workload phase, e.g. "wordcount/map".
	Name string
	// InstructionsPerByte is the dynamic instruction count per input byte.
	InstructionsPerByte float64
	// Mix is the dynamic instruction mix.
	Mix Mix
	// Mem describes cache/memory behaviour.
	Mem MemBehavior
	// BranchMispredictRate is mispredictions per branch instruction.
	BranchMispredictRate float64
	// ILP is the average number of independent instructions available to
	// issue each cycle; it caps the useful issue width.
	ILP float64
}

// Validate checks the profile for internal consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("isa: profile has no name")
	}
	if p.InstructionsPerByte <= 0 {
		return fmt.Errorf("isa: profile %s: instructions per byte must be positive, got %v", p.Name, p.InstructionsPerByte)
	}
	if err := p.Mix.Validate(); err != nil {
		return fmt.Errorf("profile %s: %w", p.Name, err)
	}
	if err := p.Mem.Validate(); err != nil {
		return fmt.Errorf("profile %s: %w", p.Name, err)
	}
	if p.BranchMispredictRate < 0 || p.BranchMispredictRate > 1 {
		return fmt.Errorf("isa: profile %s: mispredict rate %v out of [0,1]", p.Name, p.BranchMispredictRate)
	}
	if p.ILP < 1 {
		return fmt.Errorf("isa: profile %s: ILP must be >= 1, got %v", p.Name, p.ILP)
	}
	return nil
}

// Instructions returns the dynamic instruction count for processing the
// given number of input bytes.
func (p Profile) Instructions(input units.Bytes) float64 {
	return p.InstructionsPerByte * float64(input)
}
