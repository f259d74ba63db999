package sim

import (
	"context"
	"testing"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func phaseSplitJob(t *testing.T, name string) JobSpec {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	data := units.Bytes(units.GB)
	if name == "naivebayes" || name == "fpgrowth" {
		data = 10 * units.GB
	}
	return JobSpec{
		Name: name, Spec: w.Spec(), DataPerNode: data,
		BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
	}
}

func TestPhaseSplitStructure(t *testing.T) {
	job := phaseSplitJob(t, "naivebayes")
	r, err := RunPhaseSplit(context.Background(), NewCluster(AtomNode(8)), NewCluster(XeonNode(8)), job)
	if err != nil {
		t.Fatal(err)
	}
	if r.MapOn != "atom-c2758" || r.ReduceOn != "xeon-e5-2420" {
		t.Errorf("platforms: map on %s, reduce on %s", r.MapOn, r.ReduceOn)
	}
	var sumT units.Seconds
	var sumE units.Joules
	for _, ph := range Phases() {
		sumT += r.Phases[ph].Time
		sumE += r.Phases[ph].Energy
	}
	sumT += r.Handoff.Time
	sumE += r.Handoff.Energy
	if d := float64(sumT - r.Total.Time); d > 1e-9 || d < -1e-9 {
		t.Errorf("phase times %v != total %v", sumT, r.Total.Time)
	}
	if d := float64(sumE - r.Total.Energy); d > 1e-9 || d < -1e-9 {
		t.Errorf("phase energies %v != total %v", sumE, r.Total.Energy)
	}
	if r.Handoff.Time <= 0 {
		t.Error("cross-platform handoff should cost time for a shuffling job")
	}
	if r.EDP() <= 0 {
		t.Error("EDP not positive")
	}
}

// TestPhaseSplitMatchesPhaseVerdicts asserts the motivating scenario: for
// Naive Bayes (little-preferring map, big-preferring reduce), the
// little-map/big-reduce split has lower EDP than the inverse split.
func TestPhaseSplitMatchesPhaseVerdicts(t *testing.T) {
	job := phaseSplitJob(t, "naivebayes")
	little, big := NewCluster(AtomNode(8)), NewCluster(XeonNode(8))
	littleMap, err := RunPhaseSplit(context.Background(), little, big, job)
	if err != nil {
		t.Fatal(err)
	}
	bigMap, err := RunPhaseSplit(context.Background(), big, little, job)
	if err != nil {
		t.Fatal(err)
	}
	if littleMap.EDP() >= bigMap.EDP() {
		t.Errorf("little-map/big-reduce EDP %.3g not below the inverse %.3g", littleMap.EDP(), bigMap.EDP())
	}
}

// TestPhaseSplitCanBeatHomogeneousOnEDxP checks the future-work promise:
// for a workload with opposing phase preferences there exists a cost
// exponent under which the split beats at least one homogeneous deployment,
// and the split is never worse than BOTH homogeneous options by more than
// the handoff cost.
func TestPhaseSplitBounds(t *testing.T) {
	job := phaseSplitJob(t, "naivebayes")
	little, big := NewCluster(AtomNode(8)), NewCluster(XeonNode(8))
	split, err := RunPhaseSplit(context.Background(), little, big, job)
	if err != nil {
		t.Fatal(err)
	}
	homoL, err := Run(context.Background(), little, job)
	if err != nil {
		t.Fatal(err)
	}
	homoB, err := Run(context.Background(), big, job)
	if err != nil {
		t.Fatal(err)
	}
	// The split's map phase matches the little platform's and its reduce
	// phase matches the big platform's.
	lm, _ := homoL.MapReduceOnly()
	_, br := homoB.MapReduceOnly()
	if split.Phases[PhaseMap] != lm {
		t.Error("split map phase does not match the little platform's")
	}
	if split.Phases[PhaseReduce] != br {
		t.Error("split reduce phase does not match the big platform's")
	}
	// Sanity bound: the split time never exceeds the slow platform's time
	// plus the handoff.
	if split.Total.Time > homoL.Total.Time+homoB.Total.Time {
		t.Errorf("split time %v exceeds the sum of both homogeneous runs", split.Total.Time)
	}
}

func TestPhaseSplitNoShuffleNoHandoff(t *testing.T) {
	// Sort has ShuffleRatio > 0 so use a synthetic spec without shuffle.
	w, _ := workloads.ByName("grep")
	spec := w.Spec()
	spec.ShuffleRatio = 0
	job := JobSpec{Name: "noshuffle", Spec: spec, DataPerNode: units.GB,
		BlockSize: 256 * units.MB, Frequency: 1.8 * units.GHz}
	r, err := RunPhaseSplit(context.Background(), NewCluster(AtomNode(8)), NewCluster(XeonNode(8)), job)
	if err != nil {
		t.Fatal(err)
	}
	if r.Handoff.Time != 0 {
		t.Errorf("no-shuffle job paid handoff %v", r.Handoff.Time)
	}
}

func TestPhaseSplitPropagatesErrors(t *testing.T) {
	job := phaseSplitJob(t, "wordcount")
	bad := NewCluster(AtomNode(8))
	bad.Nodes = 0
	if _, err := RunPhaseSplit(context.Background(), bad, NewCluster(XeonNode(8)), job); err == nil {
		t.Error("invalid map cluster accepted")
	}
	if _, err := RunPhaseSplit(context.Background(), NewCluster(XeonNode(8)), bad, job); err == nil {
		t.Error("invalid reduce cluster accepted")
	}
}
