package accel

import (
	"context"
	"testing"

	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func report(t *testing.T, node sim.Node, name string, f units.Hertz, block units.Bytes) sim.Report {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	data := units.Bytes(units.GB)
	if name == "naivebayes" || name == "fpgrowth" {
		data = 10 * units.GB
	}
	r, err := sim.Run(context.Background(), sim.NewCluster(node), sim.JobSpec{
		Name: name, Spec: w.Spec(), DataPerNode: data, BlockSize: block, Frequency: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidation(t *testing.T) {
	if err := PCIeGen3x8().Validate(); err != nil {
		t.Errorf("shipped FPGA invalid: %v", err)
	}
	if err := (FPGA{LinkBandwidth: 0}).Validate(); err == nil {
		t.Error("zero link bandwidth accepted")
	}
	if err := (FPGA{LinkBandwidth: 1, ActivePower: -1}).Validate(); err == nil {
		t.Error("negative power accepted")
	}
	if err := DefaultOffload(30).Validate(); err != nil {
		t.Errorf("default offload invalid: %v", err)
	}
	if err := (Offload{Acceleration: 0.5}).Validate(); err == nil {
		t.Error("sub-1x acceleration accepted")
	}
	if err := (Offload{Acceleration: 2, HWFraction: 1.5}).Validate(); err == nil {
		t.Error("HW fraction > 1 accepted")
	}
	if err := (Offload{Acceleration: 2, TransferRatio: -1}).Validate(); err == nil {
		t.Error("negative transfer ratio accepted")
	}
}

func TestApplyDecomposition(t *testing.T) {
	r := report(t, sim.XeonNode(8), "wordcount", 1.8*units.GHz, 256*units.MB)
	res, err := Apply(r, units.GB, PCIeGen3x8(), DefaultOffload(30))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TimeCPU + res.TimeFPGA + res.TimeTrans; got != res.MapTime {
		t.Errorf("map decomposition %v != %v", got, res.MapTime)
	}
	if res.MapSpeedup <= 1 {
		t.Errorf("map speedup %v, want > 1 at 30x", res.MapSpeedup)
	}
	if res.TotalTime >= r.Total.Time {
		t.Error("acceleration did not reduce total time")
	}
	if res.TotalEnergy >= r.Total.Energy {
		t.Error("acceleration did not reduce total energy")
	}
}

func TestNoAccelerationStillPaysTransfer(t *testing.T) {
	// At 1x, the offloaded work runs at host speed but transfers still
	// cost: the map phase must not get faster.
	r := report(t, sim.AtomNode(8), "wordcount", 1.8*units.GHz, 256*units.MB)
	res, err := Apply(r, units.GB, PCIeGen3x8(), DefaultOffload(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapSpeedup > 1 {
		t.Errorf("1x acceleration produced speedup %v", res.MapSpeedup)
	}
}

func TestMapSpeedupSaturates(t *testing.T) {
	// Amdahl: the CPU residue and transfer bound the map speedup no matter
	// the acceleration rate.
	r := report(t, sim.XeonNode(8), "wordcount", 1.8*units.GHz, 256*units.MB)
	prev := 0.0
	for _, k := range []float64{2, 10, 50, 100, 1000} {
		res, err := Apply(r, units.GB, PCIeGen3x8(), DefaultOffload(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.MapSpeedup <= prev {
			t.Errorf("speedup not increasing at %vx", k)
		}
		prev = res.MapSpeedup
	}
	limit := 1 / (1 - DefaultOffload(2).HWFraction)
	if prev >= limit {
		t.Errorf("speedup %v exceeded Amdahl limit %v", prev, limit)
	}
}

func TestFig14RatioBelowOneAndOrdering(t *testing.T) {
	// Paper Fig 14: offloading the map phase shrinks the benefit of
	// migrating the remaining code from Atom to Xeon (ratio < 1), and the
	// effect is weakest for the workloads whose map share is smallest
	// (TeraSort, Grep).
	fpga := PCIeGen3x8()
	ratios := map[string]float64{}
	for _, name := range []string{"wordcount", "grep", "terasort", "naivebayes", "fpgrowth"} {
		aB := report(t, sim.AtomNode(8), name, 1.8*units.GHz, 512*units.MB)
		xB := report(t, sim.XeonNode(8), name, 1.8*units.GHz, 512*units.MB)
		data := units.Bytes(units.GB)
		if name == "naivebayes" || name == "fpgrowth" {
			data = 10 * units.GB
		}
		aA, err := Apply(aB, data, fpga, DefaultOffload(30))
		if err != nil {
			t.Fatal(err)
		}
		xA, err := Apply(xB, data, fpga, DefaultOffload(30))
		if err != nil {
			t.Fatal(err)
		}
		ratio := SpeedupRatio(aB, xB, aA, xA)
		ratios[name] = ratio
		if ratio >= 1.05 {
			t.Errorf("%s: post-acceleration ratio %.2f, want <= ~1", name, ratio)
		}
		if ratio <= 0 {
			t.Errorf("%s: nonsensical ratio %v", name, ratio)
		}
	}
	// WordCount (map-dominated) must be affected more than TeraSort
	// (reduce-heavy): its ratio sits further below 1.
	if ratios["wordcount"] >= ratios["terasort"] {
		t.Errorf("wordcount ratio %.2f not below terasort's %.2f", ratios["wordcount"], ratios["terasort"])
	}
}

func TestRatioGrowsWithAcceleration(t *testing.T) {
	// More acceleration compresses the map phase further, so the ratio
	// moves monotonically away from 1 until it saturates.
	aB := report(t, sim.AtomNode(8), "wordcount", 1.8*units.GHz, 512*units.MB)
	xB := report(t, sim.XeonNode(8), "wordcount", 1.8*units.GHz, 512*units.MB)
	prev := 1.0
	for _, k := range []float64{2, 5, 10, 30, 100} {
		aA, _ := Apply(aB, units.GB, PCIeGen3x8(), DefaultOffload(k))
		xA, _ := Apply(xB, units.GB, PCIeGen3x8(), DefaultOffload(k))
		r := SpeedupRatio(aB, xB, aA, xA)
		if r >= prev {
			t.Errorf("ratio did not fall at %vx: %.3f >= %.3f", k, r, prev)
		}
		prev = r
	}
}

func TestApplyErrors(t *testing.T) {
	r := report(t, sim.XeonNode(8), "wordcount", 1.8*units.GHz, 256*units.MB)
	if _, err := Apply(r, units.GB, FPGA{}, DefaultOffload(10)); err == nil {
		t.Error("invalid FPGA accepted")
	}
	if _, err := Apply(r, units.GB, PCIeGen3x8(), Offload{}); err == nil {
		t.Error("invalid offload accepted")
	}
	var empty sim.Report
	if _, err := Apply(empty, units.GB, PCIeGen3x8(), DefaultOffload(10)); err == nil {
		t.Error("empty report accepted")
	}
}
