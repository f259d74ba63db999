package expt

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// runGen executes a generator and does structural checks.
func runGen(t *testing.T, id string) Table {
	t.Helper()
	g, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := g.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tbl.ID != id {
		t.Errorf("%s: table reports ID %q", id, tbl.ID)
	}
	if len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("%s: row %d has %d cells, header has %d", id, i, len(row), len(tbl.Header))
		}
	}
	return tbl
}

func cell(t *testing.T, tbl Table, row int, col string) string {
	t.Helper()
	for i, h := range tbl.Header {
		if h == col {
			return tbl.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q", tbl.ID, col)
	return ""
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestRegistryAndPrinting(t *testing.T) {
	if len(All()) != 25 {
		t.Errorf("registry has %d artefacts, want 25", len(All()))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown artefact accepted")
	}
	tbl := runGen(t, "table2")
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table2", "wordcount", "fpgrowth", "SPEC"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q", want)
		}
	}
}

func TestTable1EchoesArchitecture(t *testing.T) {
	tbl := runGen(t, "table1")
	var text bytes.Buffer
	tbl.Fprint(&text)
	for _, want := range []string{"24.00KB", "15.00MB", "160mm2", "216mm2", "1.8GHz"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFig1Orderings(t *testing.T) {
	tbl := runGen(t, "fig1")
	// Rows: Avg_Spec, Avg_Parsec, Avg_Hadoop.
	get := func(row int, col string) float64 { return num(t, cell(t, tbl, row, col)) }
	for r := 0; r < 3; r++ {
		if get(r, "Xeon IPC") <= get(r, "Atom IPC") {
			t.Errorf("row %d: big core IPC not above little", r)
		}
	}
	if get(2, "Atom IPC") >= get(0, "Atom IPC") || get(2, "Xeon IPC") >= get(0, "Xeon IPC") {
		t.Error("Hadoop IPC not below SPEC IPC")
	}
	// The traditional-to-Hadoop drop is bigger on the big core.
	dropX := get(0, "Xeon IPC") / get(2, "Xeon IPC")
	dropA := get(0, "Atom IPC") / get(2, "Atom IPC")
	if dropX <= dropA {
		t.Errorf("Hadoop drop on big core %.2f not above little %.2f", dropX, dropA)
	}
}

func TestFig2Ratios(t *testing.T) {
	tbl := runGen(t, "fig2")
	for r := range tbl.Rows {
		edp, ed2p, ed3p := num(t, cell(t, tbl, r, "EDP")), num(t, cell(t, tbl, r, "ED2P")), num(t, cell(t, tbl, r, "ED3P"))
		if !(edp < ed2p && ed2p < ed3p) {
			t.Errorf("row %d: EDxP ratios not increasing: %v %v %v", r, edp, ed2p, ed3p)
		}
		if edp >= 1 {
			t.Errorf("row %d: EDP ratio %v, want < 1 (Atom wins plain EDP)", r, edp)
		}
	}
}

func TestFig3Structure(t *testing.T) {
	tbl := runGen(t, "fig3")
	// 2 platforms x 4 frequencies x 5 block sizes.
	if len(tbl.Rows) != 40 {
		t.Fatalf("fig3 has %d rows, want 40", len(tbl.Rows))
	}
	// Xeon rows come first; every workload column must show Xeon faster
	// than Atom for the matching configuration.
	for i := 0; i < 20; i++ {
		for _, col := range []string{"WC[s]", "ST[s]", "GP[s]", "TS[s]"} {
			x := num(t, cell(t, tbl, i, col))
			a := num(t, cell(t, tbl, i+20, col))
			if a <= x {
				t.Errorf("row %d %s: Atom %.1f not above Xeon %.1f", i, col, a, x)
			}
		}
	}
	// Frequency helps: at fixed block size (first of each platform group),
	// time at 1.8 GHz is below 1.2 GHz.
	for _, base := range []int{0, 20} {
		for _, col := range []string{"WC[s]", "ST[s]"} {
			if num(t, cell(t, tbl, base+15, col)) >= num(t, cell(t, tbl, base, col)) {
				t.Errorf("%s: 1.8GHz not faster than 1.2GHz", col)
			}
		}
	}
}

func TestFig4Structure(t *testing.T) {
	tbl := runGen(t, "fig4")
	if len(tbl.Rows) != 32 { // 2 platforms x 4 freqs x 4 blocks
		t.Fatalf("fig4 has %d rows, want 32", len(tbl.Rows))
	}
	// FP dwarfs NB (the paper's secondary-axis observation).
	for r := range tbl.Rows {
		if num(t, cell(t, tbl, r, "FP[s]")) <= num(t, cell(t, tbl, r, "NB[s]")) {
			t.Errorf("row %d: FP not the heavyweight", r)
		}
	}
}

func TestFig6Normalization(t *testing.T) {
	tbl := runGen(t, "fig6")
	// First row is Atom @1.2 GHz: every workload normalizes to 1.00.
	for _, col := range []string{"WC", "ST", "GP", "TS"} {
		if got := cell(t, tbl, 0, col); got != "1.00" {
			t.Errorf("Atom@1.2 %s = %s, want 1.00", col, got)
		}
	}
	// EDP falls with frequency on Atom (rows 0-3).
	for _, col := range []string{"WC", "ST", "GP", "TS"} {
		if num(t, cell(t, tbl, 3, col)) >= num(t, cell(t, tbl, 0, col)) {
			t.Errorf("%s: Atom EDP did not fall with frequency", col)
		}
	}
	// Sort: Xeon (rows 4-7) EDP below Atom at matching frequency.
	for r := 0; r < 4; r++ {
		if num(t, cell(t, tbl, 4+r, "ST")) >= num(t, cell(t, tbl, r, "ST")) {
			t.Errorf("ST row %d: Xeon EDP not below Atom", r)
		}
	}
	// WordCount: Atom EDP below Xeon at matching frequency.
	for r := 0; r < 4; r++ {
		if num(t, cell(t, tbl, r, "WC")) >= num(t, cell(t, tbl, 4+r, "WC")) {
			t.Errorf("WC row %d: Atom EDP not below Xeon", r)
		}
	}
}

func TestFig7PhaseVerdicts(t *testing.T) {
	tbl := runGen(t, "fig7")
	// Sort has no reduce phase: its reduce column is "-" everywhere.
	for r := range tbl.Rows {
		if got := cell(t, tbl, r, "ST-red"); got != "-" {
			t.Errorf("row %d: ST reduce = %q, want -", r, got)
		}
	}
	// Map normalization reference: Atom @1.2 GHz = 1.00.
	if got := cell(t, tbl, 0, "WC-map"); got != "1.00" {
		t.Errorf("WC-map reference = %s", got)
	}
}

func TestFig9GapGrowsForGrep(t *testing.T) {
	tbl := runGen(t, "fig9")
	prev := 0.0
	for r := range tbl.Rows {
		g := num(t, cell(t, tbl, r, "GP"))
		if g <= prev {
			t.Errorf("grep EDP gap not monotone at row %d", r)
		}
		prev = g
	}
	// Sort: Xeon wins EDP at every block size (ratio < 1).
	for r := range tbl.Rows {
		if num(t, cell(t, tbl, r, "ST")) >= 1 {
			t.Errorf("row %d: sort EDP ratio >= 1", r)
		}
	}
}

func TestFig10BreakdownShares(t *testing.T) {
	tbl := runGen(t, "fig10")
	if len(tbl.Rows) != 12 { // 2 workloads x 2 platforms x 3 sizes
		t.Fatalf("fig10 has %d rows, want 12", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		m := num(t, cell(t, tbl, r, "Map"))
		red := num(t, cell(t, tbl, r, "Reduce"))
		oth := num(t, cell(t, tbl, r, "Others"))
		sum := m + red + oth
		if sum < 97 || sum > 103 {
			t.Errorf("row %d: shares sum to %v%%", r, sum)
		}
	}
	// Totals grow with data size within each (workload, platform) group.
	for g := 0; g < 4; g++ {
		base := g * 3
		t1 := num(t, cell(t, tbl, base, "Total[s]"))
		t20 := num(t, cell(t, tbl, base+2, "Total[s]"))
		if t20 <= t1 {
			t.Errorf("group %d: total did not grow with data size", g)
		}
	}
}

func TestFig12EDPGrowsWithData(t *testing.T) {
	tbl := runGen(t, "fig12")
	for r := range tbl.Rows {
		v1 := num(t, cell(t, tbl, r, "1GB"))
		v10 := num(t, cell(t, tbl, r, "10GB"))
		v20 := num(t, cell(t, tbl, r, "20GB"))
		if !(v1 < v10 && v10 < v20) {
			t.Errorf("row %d: EDP not rising with data: %v %v %v", r, v1, v10, v20)
		}
	}
}

func TestFig14RatiosBelowOneAndFalling(t *testing.T) {
	tbl := runGen(t, "fig14")
	// At 1x acceleration every ratio is ~1.
	for _, col := range []string{"WC", "GP", "TS", "NB", "FP"} {
		if v := num(t, cell(t, tbl, 0, col)); v < 0.95 || v > 1.1 {
			t.Errorf("1x %s ratio = %v, want ~1", col, v)
		}
	}
	last := len(tbl.Rows) - 1
	for _, col := range []string{"WC", "NB", "FP"} {
		hi := num(t, cell(t, tbl, last, col))
		lo := num(t, cell(t, tbl, 0, col))
		if hi >= lo {
			t.Errorf("%s: ratio did not fall with acceleration (%v -> %v)", col, lo, hi)
		}
		if hi >= 1 {
			t.Errorf("%s: ratio at 100x = %v, want < 1", col, hi)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	tbl := runGen(t, "table3")
	if len(tbl.Rows) != 24 { // 4 metrics x 6 workloads
		t.Fatalf("table3 has %d rows, want 24", len(tbl.Rows))
	}
	parse := func(r int, col string) float64 {
		v, err := strconv.ParseFloat(cell(t, tbl, r, col), 64)
		if err != nil {
			t.Fatalf("cell %s: %v", col, err)
		}
		return v
	}
	// EDP rows are 0-5 (WC ST GP TS NB FP): Atom M8 EDP below Atom M2 for
	// every workload (more little cores help operational cost).
	for r := 0; r < 6; r++ {
		if parse(r, "Atom-M8") >= parse(r, "Atom-M2") {
			t.Errorf("EDP row %d: Atom M8 not below M2", r)
		}
	}
	// Sort (row 1): Xeon EDP below Atom EDP at M8.
	if parse(1, "Xeon-M8") >= parse(1, "Atom-M8") {
		t.Error("sort EDP: Xeon M8 not below Atom M8")
	}
	// EDAP rows are 12-17: for the micro-benchmarks, adding Xeon cores
	// raises EDAP (capital cost outgrows the speedup).
	for r := 12; r < 16; r++ {
		if parse(r, "Xeon-M8") <= parse(r, "Xeon-M2") {
			t.Errorf("EDAP row %d: Xeon M8 not above M2", r)
		}
	}
}

func TestFig17SpiderClaims(t *testing.T) {
	tbl := runGen(t, "fig17")
	if len(tbl.Rows) != 48 { // 6 workloads x 8 configs
		t.Fatalf("fig17 has %d rows, want 48", len(tbl.Rows))
	}
	find := func(workload, config string) int {
		for r, row := range tbl.Rows {
			if row[0] == workload && row[1] == config {
				return r
			}
		}
		t.Fatalf("no row for %s/%s", workload, config)
		return -1
	}
	// X8 reference rows normalize to 1.00.
	for _, w := range []string{"WC", "ST", "GP", "TS", "NB", "FP"} {
		r := find(w, "X8")
		for _, col := range []string{"EDP", "ED2P", "EDAP", "ED2AP"} {
			if got := cell(t, tbl, r, col); got != "1.00" {
				t.Errorf("%s X8 %s = %s, want 1.00", w, col, got)
			}
		}
	}
	// Paper §3.5: even 8 Atom cores achieve lower EDP than 2 Xeon cores
	// for the compute-bound workloads.
	for _, w := range []string{"WC", "NB", "FP"} {
		a8 := num(t, cell(t, tbl, find(w, "A8"), "EDP"))
		x2 := num(t, cell(t, tbl, find(w, "X2"), "EDP"))
		if a8 >= x2 {
			t.Errorf("%s: A8 EDP %.2f not below X2 %.2f", w, a8, x2)
		}
	}
	// Paper §3.5: for TeraSort and Grep, 2 Xeon cores yield lower ED2AP
	// than 8 Atom cores.
	for _, w := range []string{"TS", "GP"} {
		x2 := num(t, cell(t, tbl, find(w, "X2"), "ED2AP"))
		a8 := num(t, cell(t, tbl, find(w, "A8"), "ED2AP"))
		if x2 >= a8 {
			t.Errorf("%s: X2 ED2AP %.2f not below A8 %.2f", w, x2, a8)
		}
	}
}

func TestSchedulingCaseAgreement(t *testing.T) {
	tbl := runGen(t, "sched")
	if len(tbl.Rows) != 24 { // 6 workloads x 4 goals
		t.Fatalf("sched has %d rows, want 24", len(tbl.Rows))
	}
	// For EDP goals, the policy's platform class matches the optimum for
	// the compute-bound workloads and sort.
	for _, row := range tbl.Rows {
		if row[2] != "EDP" {
			continue
		}
		if row[0] == "WC" || row[0] == "NB" || row[0] == "FP" || row[0] == "ST" {
			policyKind := strings.Split(row[3], "/")[0]
			optKind := strings.Split(row[4], "/")[0]
			if policyKind != optKind {
				t.Errorf("%s: policy %s vs optimal %s under EDP", row[0], policyKind, optKind)
			}
		}
	}
}

func TestExtensionArtefacts(t *testing.T) {
	dseTbl := runGen(t, "ext-dse")
	pareto := 0
	for r := range dseTbl.Rows {
		if cell(t, dseTbl, r, "Pareto") == "*" {
			pareto++
		}
	}
	if pareto < 2 {
		t.Errorf("only %d Pareto members", pareto)
	}

	split := runGen(t, "ext-phasesplit")
	if len(split.Rows) != 6 {
		t.Fatalf("phasesplit has %d rows", len(split.Rows))
	}
	for r := range split.Rows {
		lt := num(t, cell(t, split, r, "Little[s]"))
		bt := num(t, cell(t, split, r, "Big[s]"))
		st := num(t, cell(t, split, r, "Split[s]"))
		if st > lt+bt {
			t.Errorf("row %d: split slower than both runs combined", r)
		}
		if bt >= lt {
			t.Errorf("row %d: big not faster than little", r)
		}
	}

	dvfs := runGen(t, "ext-dvfs")
	for r := range dvfs.Rows {
		saving := num(t, cell(t, dvfs, r, "Saving"))
		if saving < -0.01 {
			t.Errorf("row %d: negative DVFS saving %v%%", r, saving)
		}
	}

	pow := runGen(t, "ext-power")
	if len(pow.Rows) != 12 {
		t.Fatalf("ext-power has %d rows", len(pow.Rows))
	}
	for r := range pow.Rows {
		total := num(t, cell(t, pow, r, "Total"))
		sum := num(t, cell(t, pow, r, "Cores")) + num(t, cell(t, pow, r, "Uncore")) +
			num(t, cell(t, pow, r, "DRAM")) + num(t, cell(t, pow, r, "Disk"))
		if total < sum-0.3 || total > sum+0.3 {
			t.Errorf("row %d: components %.1f do not sum to total %.1f", r, sum, total)
		}
	}
}

// TestAllGeneratorsRun executes the full registry once; generators not
// covered by a dedicated assertion still must produce valid tables.
func TestAllGeneratorsRun(t *testing.T) {
	for _, g := range All() {
		tbl, err := g.Run(context.Background())
		if err != nil {
			t.Errorf("%s: %v", g.ID, err)
			continue
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty", g.ID)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := Table{
		ID: "x", Title: "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with,comma"}, {"2", "plain"}},
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"with,comma\"\n2,plain\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteMarkdown(t *testing.T) {
	tbl := Table{ID: "x", Title: "demo", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	var buf bytes.Buffer
	if err := tbl.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	want := "### x: demo\n\n| a | b |\n| --- | --- |\n| 1 | 2 |\n\n"
	if buf.String() != want {
		t.Errorf("markdown = %q, want %q", buf.String(), want)
	}
}

func TestFig15And16Structure(t *testing.T) {
	f15 := runGen(t, "fig15")
	if len(f15.Rows) != 4 {
		t.Fatalf("fig15 has %d rows", len(f15.Rows))
	}
	f16 := runGen(t, "fig16")
	if len(f16.Rows) != 5 {
		t.Fatalf("fig16 has %d rows", len(f16.Rows))
	}
	// All Eq.1 ratios stay near or below 1 across both sweeps for the
	// map-heavy workloads.
	for _, tbl := range []Table{f15, f16} {
		for r := range tbl.Rows {
			for _, col := range []string{"WC", "NB", "FP"} {
				if v := num(t, cell(t, tbl, r, col)); v >= 1.05 {
					t.Errorf("%s row %d %s ratio %v >= 1.05", tbl.ID, r, col, v)
				}
			}
		}
	}
}

func TestRenderBars(t *testing.T) {
	tbl := Table{
		ID: "demo", Title: "t",
		Header: []string{"Workload", "Val"},
		Rows:   [][]string{{"a", "2.0"}, {"b", "4.0"}, {"c", "-"}},
	}
	var buf bytes.Buffer
	if err := tbl.RenderBars(&buf, "Val", 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a |#### 2") || !strings.Contains(out, "b |######## 4") {
		t.Errorf("bars wrong:\n%s", out)
	}
	if strings.Contains(out, "c |") {
		t.Error("non-numeric row rendered")
	}
	if err := tbl.RenderBars(&buf, "Nope", 8); err == nil {
		t.Error("unknown column accepted")
	}
	empty := Table{ID: "e", Header: []string{"X"}, Rows: [][]string{{"-"}}}
	if err := empty.RenderBars(&buf, "X", 8); err == nil {
		t.Error("all-non-numeric column accepted")
	}
}
