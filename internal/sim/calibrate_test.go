package sim

// calibrate_test.go prints the headline quantities the paper reports so the
// model constants can be tuned, and asserts the shape targets from DESIGN.md.

import (
	"context"
	"testing"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func mustRun(t *testing.T, node Node, w workloads.Workload, data units.Bytes, block units.Bytes, f units.Hertz) Report {
	t.Helper()
	r, err := Run(context.Background(), NewCluster(node), JobSpec{
		Name:        w.Name(),
		Spec:        w.Spec(),
		DataPerNode: data,
		BlockSize:   block,
		Frequency:   f,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return r
}

// TestCalibrationSummary logs the key paper quantities for inspection.
func TestCalibrationSummary(t *testing.T) {
	const (
		oneGB = units.GB
		tenGB = 10 * units.GB
		block = 512 * units.MB
		f18   = 1.8 * units.GHz
	)
	for _, w := range workloads.All() {
		data := units.Bytes(oneGB)
		if w.Name() == "naivebayes" || w.Name() == "fpgrowth" {
			data = tenGB
		}
		atom := mustRun(t, AtomNode(8), w, data, block, f18)
		xeon := mustRun(t, XeonNode(8), w, data, block, f18)
		am, ar := atom.MapReduceOnly()
		xm, xr := xeon.MapReduceOnly()
		edpA := float64(atom.Total.Energy) * float64(atom.Total.Time)
		edpX := float64(xeon.Total.Energy) * float64(xeon.Total.Time)
		t.Logf("%-10s T(atom)=%7.1fs T(xeon)=%7.1fs ratio=%5.2f | P(a)=%5.1fW P(x)=%5.1fW | EDP a/x=%5.2f | map a/x=%4.2f red a/x=%4.2f | IPC a=%.2f x=%.2f",
			w.Name(), float64(atom.Total.Time), float64(xeon.Total.Time),
			float64(atom.Total.Time)/float64(xeon.Total.Time),
			float64(atom.Total.AvgPower), float64(xeon.Total.AvgPower),
			edpA/edpX,
			safeRatio(float64(am.Time), float64(xm.Time)), safeRatio(float64(ar.Time), float64(xr.Time)),
			atom.MapIPC, xeon.MapIPC)
	}
	// Frequency sensitivity of WordCount (paper: Atom gains more).
	for _, mk := range []struct {
		name string
		node Node
	}{{"atom", AtomNode(8)}, {"xeon", XeonNode(8)}} {
		wc, _ := workloads.ByName("wordcount")
		lo := mustRun(t, mk.node, wc, units.GB, 256*units.MB, 1.2*units.GHz)
		hi := mustRun(t, mk.node, wc, units.GB, 256*units.MB, 1.8*units.GHz)
		t.Logf("wordcount %s: freq gain 1.2->1.8 = %.1f%%", mk.name, 100*(1-float64(hi.Total.Time)/float64(lo.Total.Time)))
	}
	// Block-size curve for WordCount and Sort on both platforms.
	for _, mk := range []struct {
		name string
		node Node
	}{{"atom", AtomNode(8)}, {"xeon", XeonNode(8)}} {
		for _, name := range []string{"wordcount", "sort"} {
			w, _ := workloads.ByName(name)
			var row []float64
			for _, bs := range []units.Bytes{32, 64, 128, 256, 512} {
				r := mustRun(t, mk.node, w, units.GB, bs*units.MB, 1.8*units.GHz)
				row = append(row, float64(r.Total.Time))
			}
			t.Logf("%s %s blocksweep 32..512MB: %.1f %.1f %.1f %.1f %.1f", name, mk.name, row[0], row[1], row[2], row[3], row[4])
		}
	}
	// Data-size scaling 1->20 GB at 512MB/1.8GHz.
	for _, name := range []string{"grep", "wordcount", "terasort", "naivebayes", "fpgrowth"} {
		w, _ := workloads.ByName(name)
		for _, mk := range []struct {
			name string
			node Node
		}{{"atom", AtomNode(8)}, {"xeon", XeonNode(8)}} {
			t1 := mustRun(t, mk.node, w, units.GB, 512*units.MB, 1.8*units.GHz)
			t20 := mustRun(t, mk.node, w, 20*units.GB, 512*units.MB, 1.8*units.GHz)
			t.Logf("%s %s: 20GB/1GB time ratio = %.2f", name, mk.name, float64(t20.Total.Time)/float64(t1.Total.Time))
		}
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// TestPhaseBreakdownSane checks structural invariants of the report.
func TestPhaseBreakdownSane(t *testing.T) {
	w, _ := workloads.ByName("terasort")
	r := mustRun(t, XeonNode(8), w, units.GB, 128*units.MB, 1.8*units.GHz)
	if r.MapTasks != 8 {
		t.Errorf("MapTasks = %d, want 8 (1GB/128MB)", r.MapTasks)
	}
	var sum units.Seconds
	for _, ph := range Phases() {
		st := r.Phases[ph]
		if st.Time < 0 || st.Energy < 0 {
			t.Errorf("phase %v negative stats: %+v", ph, st)
		}
		sum += st.Time
	}
	if diff := float64(sum - r.Total.Time); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("phase times sum %v != total %v", sum, r.Total.Time)
	}
	if r.Others().Time <= 0 {
		t.Error("others bucket empty")
	}
}
