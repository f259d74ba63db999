package sim

// sim_test.go asserts the paper's qualitative results (the "shapes") hold in
// the simulator, plus structural invariants and validation behaviour.

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func edp(p PhaseStat) float64 { return float64(p.Energy) * float64(p.Time) }

func runPair(t *testing.T, name string, data units.Bytes, block units.Bytes, f units.Hertz) (atom, xeon Report) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return mustRun(t, AtomNode(8), w, data, block, f), mustRun(t, XeonNode(8), w, data, block, f)
}

func paperData(name string) units.Bytes {
	// The paper evaluates micro-benchmarks at 1 GB/node and real-world
	// applications at 10 GB/node.
	if name == "naivebayes" || name == "fpgrowth" {
		return 10 * units.GB
	}
	return units.GB
}

// TestXeonFasterSortIsTheOutlier asserts Fig 3/4's performance ordering:
// the big core is faster everywhere, and the I/O-intensive Sort shows by far
// the largest gap.
func TestXeonFasterSortIsTheOutlier(t *testing.T) {
	ratios := map[string]float64{}
	for _, w := range workloads.All() {
		a, x := runPair(t, w.Name(), paperData(w.Name()), 512*units.MB, 1.8*units.GHz)
		r := float64(a.Total.Time) / float64(x.Total.Time)
		ratios[w.Name()] = r
		if r <= 1 {
			t.Errorf("%s: big core not faster (ratio %.2f)", w.Name(), r)
		}
	}
	for name, r := range ratios {
		if name == "sort" {
			continue
		}
		if ratios["sort"] <= r {
			t.Errorf("sort ratio %.2f not above %s ratio %.2f", ratios["sort"], name, r)
		}
	}
	// WordCount's gap is modest (paper: 1.74x) while Sort's is large
	// (paper: 15.4x; this model reproduces the outlier at ~4x).
	if ratios["wordcount"] > 2.6 {
		t.Errorf("wordcount gap %.2f too large", ratios["wordcount"])
	}
	if ratios["sort"] < 3 {
		t.Errorf("sort gap %.2f too small to be the outlier", ratios["sort"])
	}
}

// TestEDPAtomWinsExceptSort asserts the paper's central energy-efficiency
// result: the little core has lower EDP for every application except Sort.
func TestEDPAtomWinsExceptSort(t *testing.T) {
	for _, w := range workloads.All() {
		a, x := runPair(t, w.Name(), paperData(w.Name()), 512*units.MB, 1.8*units.GHz)
		ratio := edp(a.Total) / edp(x.Total)
		if w.Name() == "sort" {
			if ratio <= 1 {
				t.Errorf("sort: Atom EDP ratio %.2f, want > 1 (Xeon wins the I/O-intensive sort)", ratio)
			}
			continue
		}
		if ratio >= 1 {
			t.Errorf("%s: Atom EDP ratio %.2f, want < 1 (Atom wins)", w.Name(), ratio)
		}
	}
}

// TestFrequencyScaling asserts §3.1.1: raising frequency reduces execution
// time on both platforms, sublinearly, and the little core gains more.
func TestFrequencyScaling(t *testing.T) {
	for _, name := range []string{"wordcount", "terasort", "naivebayes"} {
		gains := map[string]float64{}
		for _, mk := range []struct {
			label string
			node  Node
		}{{"atom", AtomNode(8)}, {"xeon", XeonNode(8)}} {
			w, _ := workloads.ByName(name)
			lo := mustRun(t, mk.node, w, paperData(name), 256*units.MB, 1.2*units.GHz)
			hi := mustRun(t, mk.node, w, paperData(name), 256*units.MB, 1.8*units.GHz)
			gain := 1 - float64(hi.Total.Time)/float64(lo.Total.Time)
			if gain <= 0 {
				t.Errorf("%s/%s: no speedup from 1.2->1.8 GHz", name, mk.label)
			}
			if gain >= 1-1.2/1.8+0.05 {
				t.Errorf("%s/%s: frequency speedup %.2f implausibly superlinear", name, mk.label, gain)
			}
			gains[mk.label] = gain
		}
		if gains["atom"] <= gains["xeon"] {
			t.Errorf("%s: Atom frequency gain %.3f not above Xeon's %.3f (paper §3.1.1)", name, gains["atom"], gains["xeon"])
		}
	}
}

// TestEDPFallsWithFrequency asserts Figs 5-6: for the entire application,
// running at the top frequency yields lower EDP than the bottom one. (On the
// big core at 10 GB the curve can flatten near the top as I/O dominates, so
// strict point-to-point monotonicity is only asserted for the little core.)
func TestEDPFallsWithFrequency(t *testing.T) {
	for _, w := range workloads.All() {
		for _, node := range []Node{AtomNode(8), XeonNode(8)} {
			var series []float64
			for _, fg := range []float64{1.2, 1.4, 1.6, 1.8} {
				r := mustRun(t, node, w, paperData(w.Name()), 512*units.MB, units.Hertz(fg)*units.GHz)
				series = append(series, edp(r.Total))
			}
			if series[3] >= series[0] {
				t.Errorf("%s on %s: EDP at 1.8 GHz (%.0f) not below 1.2 GHz (%.0f)", w.Name(), node.Core.Name, series[3], series[0])
			}
			if node.Core.Kind == AtomNode(8).Core.Kind {
				for i := 1; i < len(series); i++ {
					if series[i] >= series[i-1] {
						t.Errorf("%s on little core: EDP not monotone at step %d: %v", w.Name(), i, series)
					}
				}
			}
		}
	}
}

// TestBlockSizeShapes asserts Fig 3's block-size behaviour: WordCount has a
// sweet spot in the middle (large blocks overflow the sort buffer, small
// blocks multiply task overhead), and Atom is more sensitive to block size
// than Xeon.
func TestBlockSizeShapes(t *testing.T) {
	sweep := func(node Node, name string) []float64 {
		w, _ := workloads.ByName(name)
		var out []float64
		for _, bs := range []units.Bytes{32, 64, 128, 256, 512} {
			r := mustRun(t, node, w, units.GB, bs*units.MB, 1.8*units.GHz)
			out = append(out, float64(r.Total.Time))
		}
		return out
	}
	for _, node := range []Node{AtomNode(8), XeonNode(8)} {
		wc := sweep(node, "wordcount")
		best := math.Inf(1)
		bestIdx := -1
		for i, v := range wc {
			if v < best {
				best, bestIdx = v, i
			}
		}
		if bestIdx == 0 || bestIdx == len(wc)-1 {
			t.Errorf("%s wordcount: optimum at sweep edge (%v), want interior sweet spot", node.Core.Name, wc)
		}
		if wc[4] <= wc[3] {
			t.Errorf("%s wordcount: 512MB (%.1f) not slower than 256MB (%.1f): sort-buffer overflow missing", node.Core.Name, wc[4], wc[3])
		}
	}
	variation := func(row []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range row {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return (hi - lo) / hi
	}
	aVar := variation(sweep(AtomNode(8), "wordcount"))
	xVar := variation(sweep(XeonNode(8), "wordcount"))
	if aVar <= xVar {
		t.Errorf("Atom block-size variation %.3f not above Xeon's %.3f (paper: Atom more sensitive)", aVar, xVar)
	}
}

// TestSmallBlocksDominateAtScale asserts Fig 4's observation that at 10 GB,
// tiny blocks generate so many map tasks that per-task overhead dominates:
// 32 MB must be the worst block size.
func TestSmallBlocksDominateAtScale(t *testing.T) {
	w, _ := workloads.ByName("naivebayes")
	var times []float64
	for _, bs := range []units.Bytes{32, 64, 128, 256, 512} {
		r := mustRun(t, AtomNode(8), w, 10*units.GB, bs*units.MB, 1.8*units.GHz)
		times = append(times, float64(r.Total.Time))
	}
	for i := 1; i < len(times); i++ {
		if times[0] <= times[i] {
			return // 32MB worst against at least... check all below
		}
	}
	for i := 1; i < len(times); i++ {
		if times[0] < times[i] {
			t.Fatalf("32MB (%.1f) is not the worst at 10GB: %v", times[0], times)
		}
	}
}

// TestDataSizeScaling asserts Figs 10-12: execution time and EDP rise with
// input size on both platforms, and Sort's big-core advantage erodes as data
// grows (the paper's exception).
func TestDataSizeScaling(t *testing.T) {
	sizes := []units.Bytes{units.GB, 10 * units.GB, 20 * units.GB}
	for _, w := range workloads.All() {
		for _, node := range []Node{AtomNode(8), XeonNode(8)} {
			prevT, prevE := 0.0, 0.0
			for _, sz := range sizes {
				r := mustRun(t, node, w, sz, 512*units.MB, 1.8*units.GHz)
				if float64(r.Total.Time) <= prevT {
					t.Errorf("%s on %s: time did not grow at %v", w.Name(), r.Core, sz)
				}
				if e := edp(r.Total); e <= prevE {
					t.Errorf("%s on %s: EDP did not grow at %v", w.Name(), r.Core, sz)
				} else {
					prevE = e
				}
				prevT = float64(r.Total.Time)
			}
		}
	}
	// Sort: the big core's advantage erodes as data outgrows the page
	// cache and I/O swamps its processing edge (the paper's exception).
	ratioAt := func(sz units.Bytes) float64 {
		a, x := runPair(t, "sort", sz, 512*units.MB, 1.8*units.GHz)
		return float64(a.Total.Time) / float64(x.Total.Time)
	}
	if r10, r20 := ratioAt(10*units.GB), ratioAt(20*units.GB); r20 >= r10 {
		t.Errorf("sort Atom/Xeon ratio grew from 10GB (%.2f) to 20GB (%.2f), want erosion", r10, r20)
	}
}

// TestMapPhasePrefersAtom asserts §3.2.2: at nominal frequency, the map
// phase EDP favours the little core for the compute-bound applications.
func TestMapPhasePrefersAtom(t *testing.T) {
	for _, name := range []string{"wordcount", "grep", "naivebayes", "fpgrowth"} {
		a, x := runPair(t, name, paperData(name), 512*units.MB, 1.8*units.GHz)
		am, _ := a.MapReduceOnly()
		xm, _ := x.MapReduceOnly()
		if r := edp(am) / edp(xm); r >= 1 {
			t.Errorf("%s: map-phase EDP ratio %.2f, want < 1 (Atom)", name, r)
		}
	}
}

// TestReducePhasePrefersXeonForNB asserts §3.2.2's counterpoint: the
// memory-intensive reduce phase of Naive Bayes favours the big core at equal
// frequency.
func TestReducePhasePrefersXeonForNB(t *testing.T) {
	a, x := runPair(t, "naivebayes", 10*units.GB, 512*units.MB, 1.8*units.GHz)
	_, ar := a.MapReduceOnly()
	_, xr := x.MapReduceOnly()
	if r := edp(ar) / edp(xr); r <= 1 {
		t.Errorf("naivebayes reduce-phase EDP ratio %.2f, want > 1 (Xeon)", r)
	}
}

// TestEDPGapGrowsWithBlockSize asserts Fig 9: larger HDFS blocks widen the
// Xeon-to-Atom EDP gap on average across the studied applications, with grep
// showing the cleanest monotone growth.
func TestEDPGapGrowsWithBlockSize(t *testing.T) {
	gap := func(name string, bs units.Bytes) float64 {
		a, x := runPair(t, name, paperData(name), bs, 1.8*units.GHz)
		return edp(x.Total) / edp(a.Total)
	}
	var sum32, sum512 float64
	for _, w := range workloads.All() {
		sum32 += gap(w.Name(), 32*units.MB)
		sum512 += gap(w.Name(), 512*units.MB)
	}
	if sum512 <= sum32 {
		t.Errorf("average EDP gap did not grow with block size: %.2f at 32MB vs %.2f at 512MB", sum32/6, sum512/6)
	}
	prev := 0.0
	for _, bs := range []units.Bytes{32, 64, 128, 256, 512} {
		g := gap("grep", bs*units.MB)
		if g <= prev {
			t.Errorf("grep EDP gap not monotone at %vMB: %.2f <= %.2f", bs, g, prev)
		}
		prev = g
	}
}

// TestGrepOthersSignificant asserts §3.4's observation that grep's setup and
// cleanup contribute a significant share of its execution time.
func TestGrepOthersSignificant(t *testing.T) {
	a, _ := runPair(t, "grep", units.GB, 512*units.MB, 1.8*units.GHz)
	share := float64(a.Others().Time) / float64(a.Total.Time)
	if share < 0.2 {
		t.Errorf("grep others share %.2f, want >= 0.2", share)
	}
}

// TestMapTaskStructure checks numMapTasks = input/blockSize and wave math.
func TestMapTaskStructure(t *testing.T) {
	w, _ := workloads.ByName("wordcount")
	r := mustRun(t, AtomNode(8), w, 10*units.GB, 256*units.MB, 1.8*units.GHz)
	if r.MapTasks != 40 {
		t.Errorf("MapTasks = %d, want 40", r.MapTasks)
	}
	if r.Waves != 5 {
		t.Errorf("Waves = %d, want 5", r.Waves)
	}
	r = mustRun(t, AtomNode(3), w, units.GB, 256*units.MB, 1.8*units.GHz)
	if r.Waves != 2 {
		t.Errorf("Waves with 3 cores = %d, want 2 (4 tasks)", r.Waves)
	}
}

// TestSpillsTrackSortBuffer checks the spill count against io.sort.mb.
func TestSpillsTrackSortBuffer(t *testing.T) {
	w, _ := workloads.ByName("sort") // output ratio ~1.07
	r, err := Run(context.Background(), NewCluster(XeonNode(8)), JobSpec{
		Name: "sort", Spec: w.Spec(), DataPerNode: units.GB,
		BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
		SortBuffer: 100 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 512MB x 1.07 = ~548MB output -> 6 spills at 100MB buffer.
	if r.SpillsPerTask != 6 {
		t.Errorf("SpillsPerTask = %d, want 6", r.SpillsPerTask)
	}
	r2, err := Run(context.Background(), NewCluster(XeonNode(8)), JobSpec{
		Name: "sort", Spec: w.Spec(), DataPerNode: units.GB,
		BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
		SortBuffer: units.GB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.SpillsPerTask != 1 {
		t.Errorf("big buffer SpillsPerTask = %d, want 1", r2.SpillsPerTask)
	}
	if r2.Total.Time >= r.Total.Time {
		t.Errorf("larger sort buffer did not help: %v vs %v", r2.Total.Time, r.Total.Time)
	}
}

// TestMoreCoresFasterButCostlier checks core-count scaling direction for
// Table 3: more cores cut time and raise power.
func TestMoreCoresFasterButCostlier(t *testing.T) {
	w, _ := workloads.ByName("naivebayes")
	prevT := math.Inf(1)
	prevP := 0.0
	for _, m := range []int{2, 4, 6, 8} {
		r := mustRun(t, AtomNode(m), w, 10*units.GB, 512*units.MB, 1.8*units.GHz)
		if float64(r.Total.Time) >= prevT {
			t.Errorf("time did not fall at %d cores", m)
		}
		prevT = float64(r.Total.Time)
		if p := float64(r.Phases[PhaseMap].AvgPower); p <= prevP {
			t.Errorf("map power did not rise at %d cores", m)
		} else {
			prevP = p
		}
	}
}

// TestValidationErrors exercises the configuration guards.
func TestValidationErrors(t *testing.T) {
	w, _ := workloads.ByName("wordcount")
	good := JobSpec{Name: "x", Spec: w.Spec(), DataPerNode: units.GB, BlockSize: 64 * units.MB, Frequency: 1.8 * units.GHz}
	cluster := NewCluster(AtomNode(8))

	bad := good
	bad.Name = ""
	if _, err := Run(context.Background(), cluster, bad); err == nil {
		t.Error("nameless job accepted")
	}
	bad = good
	bad.DataPerNode = 0
	if _, err := Run(context.Background(), cluster, bad); err == nil {
		t.Error("zero data accepted")
	}
	bad = good
	bad.BlockSize = 0
	if _, err := Run(context.Background(), cluster, bad); err == nil {
		t.Error("zero block size accepted")
	}
	bad = good
	bad.Frequency = 2.4 * units.GHz
	if _, err := Run(context.Background(), cluster, bad); err == nil {
		t.Error("unsupported frequency accepted")
	}
	badCluster := cluster
	badCluster.Nodes = 0
	if _, err := Run(context.Background(), badCluster, good); err == nil {
		t.Error("empty cluster accepted")
	}
	badCluster = cluster
	badCluster.Node.ActiveCores = 99
	if _, err := Run(context.Background(), badCluster, good); err == nil {
		t.Error("too many active cores accepted")
	}
	badCluster = cluster
	badCluster.Network = 0
	if _, err := Run(context.Background(), badCluster, good); err == nil {
		t.Error("zero network accepted")
	}
}

// TestReportInvariantsProperty checks structural report invariants across
// random valid configurations.
func TestReportInvariantsProperty(t *testing.T) {
	all := workloads.All()
	freqs := []units.Hertz{1.2, 1.4, 1.6, 1.8}
	blocks := []units.Bytes{32, 64, 128, 256, 512}
	f := func(wSel, fSel, bSel, gbSel, coreSel uint8) bool {
		w := all[int(wSel)%len(all)]
		cores := int(coreSel)%8 + 1
		node := AtomNode(cores)
		if coreSel%2 == 0 {
			node = XeonNode(cores)
		}
		r, err := Run(context.Background(), NewCluster(node), JobSpec{
			Name:        w.Name(),
			Spec:        w.Spec(),
			DataPerNode: units.Bytes(int(gbSel)%20+1) * units.GB,
			BlockSize:   blocks[int(bSel)%len(blocks)] * units.MB,
			Frequency:   freqs[int(fSel)%len(freqs)] * units.GHz,
		})
		if err != nil {
			return false
		}
		var sumT units.Seconds
		var sumE units.Joules
		for _, ph := range Phases() {
			st := r.Phases[ph]
			if st.Time < 0 || st.Energy < 0 {
				return false
			}
			sumT += st.Time
			sumE += st.Energy
		}
		return math.Abs(float64(sumT-r.Total.Time)) < 1e-9 &&
			math.Abs(float64(sumE-r.Total.Energy)) < 1e-9 &&
			r.Total.Time > 0 && r.MapTasks >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDiskDiscount checks the page-cache model bounds.
func TestDiskDiscount(t *testing.T) {
	if d := diskDiscount(units.GB); d >= 0.1 {
		t.Errorf("1GB discount %v, want near-full caching", d)
	}
	if d := diskDiscount(20 * units.GB); d < 0.7 {
		t.Errorf("20GB discount %v, want mostly uncached", d)
	}
	if d := diskDiscount(0); d != 1 {
		t.Errorf("zero-data discount = %v, want 1", d)
	}
	prev := 0.0
	for _, gb := range []int{1, 2, 5, 10, 20, 40} {
		d := diskDiscount(units.Bytes(gb) * units.GB)
		if d < prev {
			t.Errorf("discount not monotone at %dGB", gb)
		}
		prev = d
	}
}

// TestScaleNLogN checks the sort-cost inflation.
func TestScaleNLogN(t *testing.T) {
	if got := scaleNLogN(0); got != 0 {
		t.Errorf("scaleNLogN(0) = %v", got)
	}
	small := units.Bytes(10 * avgRecordBytes)
	if got := scaleNLogN(small); got != small {
		t.Errorf("small input inflated: %v", got)
	}
	big := units.Bytes(1) * units.GB
	if got := scaleNLogN(big); got <= big {
		t.Errorf("1GB not inflated: %v", got)
	}
	if a, b := scaleNLogN(10*units.GB), scaleNLogN(units.GB); float64(a) <= 10*float64(b) {
		t.Errorf("n log n scaling not superlinear: %v vs 10x %v", a, b)
	}
}

// TestTaskFailuresExtendMapPhase checks the straggler/retry model: failed
// map tasks re-execute as a tail, monotonically extending the run.
func TestTaskFailuresExtendMapPhase(t *testing.T) {
	w, _ := workloads.ByName("wordcount")
	base := JobSpec{Name: "wc", Spec: w.Spec(), DataPerNode: 10 * units.GB,
		BlockSize: 256 * units.MB, Frequency: 1.8 * units.GHz}
	prev := units.Seconds(0)
	for _, rate := range []float64{0, 0.1, 0.3, 0.6} {
		job := base
		job.TaskFailureRate = rate
		r, err := Run(context.Background(), NewCluster(AtomNode(8)), job)
		if err != nil {
			t.Fatal(err)
		}
		if r.Total.Time <= prev {
			t.Errorf("time did not grow at failure rate %v", rate)
		}
		prev = r.Total.Time
	}
	bad := base
	bad.TaskFailureRate = 1.0
	if _, err := Run(context.Background(), NewCluster(AtomNode(8)), bad); err == nil {
		t.Error("failure rate 1.0 accepted")
	}
	bad.TaskFailureRate = -0.1
	if _, err := Run(context.Background(), NewCluster(AtomNode(8)), bad); err == nil {
		t.Error("negative failure rate accepted")
	}
}

// TestMeterReproducesReportEnergy closes the measurement loop: replaying a
// run into the Watts-up-style meter and subtracting idle must reproduce the
// simulator's dynamic energy within the 1 Hz sampling error.
func TestMeterReproducesReportEnergy(t *testing.T) {
	w, _ := workloads.ByName("terasort")
	node := AtomNode(8)
	r := mustRun(t, node, w, units.GB, 256*units.MB, 1.6*units.GHz)
	m := ObserveMeter(node, r)
	if got, want := float64(m.Elapsed()), float64(r.Total.Time); math.Abs(got-want) > 1e-6 {
		t.Errorf("meter elapsed %v != report %v", got, want)
	}
	got := float64(m.DynamicEnergy())
	want := float64(r.Total.Energy)
	if math.Abs(got-want) > 0.001*want {
		t.Errorf("meter dynamic energy %v != report %v", got, want)
	}
	if len(m.Samples()) < int(float64(r.Total.Time))-1 {
		t.Errorf("meter produced %d samples for a %.0fs run", len(m.Samples()), float64(r.Total.Time))
	}
	// Every sample sits above the idle floor while the node works.
	for i, s := range m.Samples() {
		if s < node.Power.IdleSystem {
			t.Fatalf("sample %d (%v) below idle %v", i, s, node.Power.IdleSystem)
		}
	}
}

// TestNonLocalTasksCostMore checks the HDFS-locality knob: pulling blocks
// over the network instead of local disk slows the map phase monotonically,
// with full caching muting but not erasing the effect at 10 GB.
func TestNonLocalTasksCostMore(t *testing.T) {
	w, _ := workloads.ByName("sort")
	base := JobSpec{Name: "sort", Spec: w.Spec(), DataPerNode: 10 * units.GB,
		BlockSize: 256 * units.MB, Frequency: 1.8 * units.GHz}
	prev := units.Seconds(0)
	for _, nl := range []float64{0, 0.5, 1.0} {
		job := base
		job.NonLocalFraction = nl
		r, err := Run(context.Background(), NewCluster(AtomNode(8)), job)
		if err != nil {
			t.Fatal(err)
		}
		if r.Total.Time <= prev {
			t.Errorf("time did not grow at non-local fraction %v", nl)
		}
		prev = r.Total.Time
	}
	bad := base
	bad.NonLocalFraction = 1.5
	if _, err := Run(context.Background(), NewCluster(AtomNode(8)), bad); err == nil {
		t.Error("non-local fraction > 1 accepted")
	}
}

// TestPerPhaseDVFS checks the phase-aware governor: splicing phases from
// two single-frequency runs is internally consistent, and the swept optimum
// is never worse than any uniform assignment.
func TestPerPhaseDVFS(t *testing.T) {
	w, _ := workloads.ByName("naivebayes")
	cluster := NewCluster(AtomNode(8))
	job := JobSpec{Name: "nb", Spec: w.Spec(), DataPerNode: 10 * units.GB,
		BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz}

	r, err := RunPerPhaseDVFS(context.Background(), cluster, job, 1.8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	var sumT units.Seconds
	for _, ph := range Phases() {
		sumT += r.Phases[ph].Time
	}
	if d := float64(sumT - r.Total.Time); d > 1e-9 || d < -1e-9 {
		t.Errorf("phase times %v != total %v", sumT, r.Total.Time)
	}
	// The map phase must match a uniform 1.8 GHz run's map phase.
	uni18, err := Run(context.Background(), cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if r.Phases[PhaseMap] != uni18.Phases[PhaseMap] {
		t.Error("map phase does not match the 1.8 GHz run")
	}

	best, err := BestPerPhaseDVFS(context.Background(), cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, fg := range []float64{1.2, 1.4, 1.6, 1.8} {
		uni, err := RunPerPhaseDVFS(context.Background(), cluster, job, fg, fg)
		if err != nil {
			t.Fatal(err)
		}
		if best.EDP() > uni.EDP()+1e-9 {
			t.Errorf("swept optimum EDP %.4g worse than uniform %.1f GHz (%.4g)", best.EDP(), fg, uni.EDP())
		}
	}
}

// TestSlowstartOverlapHidesShuffle checks the reduce slow-start knob:
// overlapping the shuffle under the map phase shortens the job, bounded by
// the full shuffle duration, and defaults off.
func TestSlowstartOverlapHidesShuffle(t *testing.T) {
	w, _ := workloads.ByName("terasort")
	base := JobSpec{Name: "ts", Spec: w.Spec(), DataPerNode: 10 * units.GB,
		BlockSize: 256 * units.MB, Frequency: 1.8 * units.GHz}
	r0, err := Run(context.Background(), NewCluster(AtomNode(8)), base)
	if err != nil {
		t.Fatal(err)
	}
	prev := r0.Total.Time
	for _, ov := range []float64{0.3, 0.6, 1.0} {
		job := base
		job.SlowstartOverlap = ov
		r, err := Run(context.Background(), NewCluster(AtomNode(8)), job)
		if err != nil {
			t.Fatal(err)
		}
		if r.Total.Time >= prev {
			t.Errorf("overlap %v did not shorten the job (%v >= %v)", ov, r.Total.Time, prev)
		}
		saved := r0.Total.Time - r.Total.Time
		if saved > r0.Phases[PhaseShuffle].Time+1e-9 {
			t.Errorf("overlap %v saved %v, more than the whole shuffle %v", ov, saved, r0.Phases[PhaseShuffle].Time)
		}
		prev = r.Total.Time
	}
	bad := base
	bad.SlowstartOverlap = 1.5
	if _, err := Run(context.Background(), NewCluster(AtomNode(8)), bad); err == nil {
		t.Error("overlap > 1 accepted")
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseSetup: "setup", PhaseMap: "map", PhaseShuffle: "shuffle",
		PhaseSort: "sort", PhaseReduce: "reduce", PhaseCleanup: "cleanup",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if got := len(Phases()); got != 6 {
		t.Errorf("Phases() = %d entries, want 6", got)
	}
	if !strings.Contains(Phase(42).String(), "42") {
		t.Error("unknown phase string")
	}
}
