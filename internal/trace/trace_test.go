package trace

import (
	"context"
	"testing"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func TestMeasureAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		m, err := Measure(context.Background(), w, Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		t.Logf("%v", m)
		if m.MapTasks == 0 {
			t.Errorf("%s: no map tasks", w.Name())
		}
		if m.MapOutputRatio <= 0 {
			t.Errorf("%s: zero map output", w.Name())
		}
		if m.CombinerReduction < 1 {
			t.Errorf("%s: combiner reduction %v below 1", w.Name(), m.CombinerReduction)
		}
	}
}

// TestSpecsMatchMeasurements is the calibration contract: every shipped
// Spec's dataflow ratios must be within 2x of what the real implementation
// measures. If a workload implementation changes, its Spec must be
// re-calibrated.
func TestSpecsMatchMeasurements(t *testing.T) {
	for _, w := range workloads.All() {
		m, err := Measure(context.Background(), w, Options{Size: 128 * units.KB, BlockSize: 32 * units.KB})
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if err := m.CheckSpec(w.Spec(), 2.0); err != nil {
			t.Errorf("%v (measured: %v)", err, m)
		}
	}
}

func TestMeasureDefaultsApplied(t *testing.T) {
	m, err := Measure(context.Background(), workloads.NewWordCount(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.InputBytes < 64*units.KB {
		t.Errorf("default size not applied: %v", m.InputBytes)
	}
	if m.MapTasks < 4 {
		t.Errorf("default 16KB blocks over 64KB should give >=4 tasks, got %d", m.MapTasks)
	}
	if m.ReduceTasks != 2 {
		t.Errorf("default reducers = %d, want 2", m.ReduceTasks)
	}
}

func TestSmallSortBufferRaisesSpills(t *testing.T) {
	base, err := Measure(context.Background(), workloads.NewWordCount(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spilly, err := Measure(context.Background(), workloads.NewWordCount(), Options{SortBuffer: 2 * units.KB})
	if err != nil {
		t.Fatal(err)
	}
	if spilly.SpillsPerMapTask <= base.SpillsPerMapTask {
		t.Errorf("tiny sort buffer did not raise spills: %v vs %v", spilly.SpillsPerMapTask, base.SpillsPerMapTask)
	}
}

func TestCheckSpecToleranceLogic(t *testing.T) {
	// Combining workload: spec shuffle must sit at or below measured.
	m := Measurement{Workload: "x", MapOutputRatio: 1.0, CombinerReduction: 2.0, ShuffleRatio: 0.5}
	spec := workloads.Spec{MapOutputRatio: 1.5, ShuffleRatio: 0.4, HasReduce: true}
	if err := m.CheckSpec(spec, 2.0); err != nil {
		t.Errorf("within-tolerance spec rejected: %v", err)
	}
	above := workloads.Spec{MapOutputRatio: 1.5, ShuffleRatio: 0.9, HasReduce: true}
	if err := m.CheckSpec(above, 2.0); err == nil {
		t.Error("shuffle above measured accepted for combining workload")
	}
	tight := workloads.Spec{MapOutputRatio: 4.0, ShuffleRatio: 0.4, HasReduce: false}
	if err := m.CheckSpec(tight, 2.0); err == nil {
		t.Error("4x-off map ratio accepted at 2x tolerance")
	}
	if err := m.CheckSpec(spec, 0.5); err == nil {
		t.Error("tolerance below 1 accepted")
	}
	// Non-combining workload: shuffle must match within tolerance.
	nc := Measurement{Workload: "y", MapOutputRatio: 2.0, CombinerReduction: 1.0, ShuffleRatio: 2.0}
	if err := nc.CheckSpec(workloads.Spec{MapOutputRatio: 2.0, ShuffleRatio: 2.0, HasReduce: true}, 2.0); err != nil {
		t.Errorf("matching non-combining spec rejected: %v", err)
	}
	if err := nc.CheckSpec(workloads.Spec{MapOutputRatio: 2.0, ShuffleRatio: 0.2, HasReduce: true}, 2.0); err == nil {
		t.Error("10x-off shuffle accepted for non-combining workload")
	}
}

func TestMeasurementStable(t *testing.T) {
	// Same seed and options: identical dataflow.
	a, err := Measure(context.Background(), workloads.NewTeraSort(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(context.Background(), workloads.NewTeraSort(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.MapOutputRatio != b.MapOutputRatio || a.ShuffleRatio != b.ShuffleRatio {
		t.Errorf("measurements differ across identical runs: %v vs %v", a, b)
	}
}

// TestDraftSpec covers the user-calibration workflow: trace a workload,
// draft a spec from the measurement, and get something valid that the
// simulator accepts and that mirrors the traced dataflow.
func TestDraftSpec(t *testing.T) {
	m, err := Measure(context.Background(), workloads.NewWordCount(), Options{Size: 128 * units.KB, BlockSize: 32 * units.KB})
	if err != nil {
		t.Fatal(err)
	}
	spec := m.DraftSpec(workloads.Compute)
	if err := spec.Validate(); err != nil {
		t.Fatalf("drafted spec invalid: %v", err)
	}
	if spec.MapOutputRatio != m.MapOutputRatio {
		t.Errorf("map output ratio %v, want traced %v", spec.MapOutputRatio, m.MapOutputRatio)
	}
	if !spec.HasReduce {
		t.Error("reduce-bearing workload drafted as map-only")
	}
	if spec.ShuffleRatio > spec.MapOutputRatio {
		t.Error("shuffle above map output")
	}
	if spec.SpillReduction < 1 || spec.SpillReduction > 8 {
		t.Errorf("spill reduction %v out of draft bounds", spec.SpillReduction)
	}
	// Each class maps to a distinct compute template.
	io := m.DraftSpec(workloads.IO)
	hybrid := m.DraftSpec(workloads.Hybrid)
	if io.MapProfile.InstructionsPerByte == spec.MapProfile.InstructionsPerByte &&
		hybrid.MapProfile.InstructionsPerByte == spec.MapProfile.InstructionsPerByte {
		t.Error("class templates are indistinguishable")
	}
	// The drafted spec runs through the simulator.
	if err := io.Validate(); err != nil {
		t.Fatalf("IO draft invalid: %v", err)
	}
	if err := hybrid.Validate(); err != nil {
		t.Fatalf("hybrid draft invalid: %v", err)
	}
}
