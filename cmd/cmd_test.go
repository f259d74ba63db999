// Package cmd_test builds and runs the shipped executables end to end —
// integration coverage for the CLI surfaces.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// build compiles one command into dir and returns the binary path.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// run executes a binary and returns its combined output, failing the test
// on a non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestTeragenCLI(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "teragen")
	out := filepath.Join(dir, "data.txt")
	run(t, bin, "-kind", "tera", "-size", "4096", "-seed", "3", "-out", out)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4096 {
		t.Errorf("generated %d bytes, want >= 4096", len(data))
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Error("output not newline-terminated")
	}
	// Unknown kind exits non-zero.
	if err := exec.Command(bin, "-kind", "nope").Run(); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestHadoopsimCLI(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "hadoopsim")
	out := run(t, bin, "-workload", "wordcount", "-platform", "xeon", "-data", "1", "-block", "256")
	for _, want := range []string{"xeon-e5-2420", "map tasks: 4", "EDP"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	out = run(t, bin, "-workload", "sort", "-compare")
	if !strings.Contains(out, "winner: big") {
		t.Errorf("sort comparison should crown the big core:\n%s", out)
	}
	out = run(t, bin, "-workload", "grep", "-real", "-realsize", "16384")
	if !strings.Contains(out, "real engine run") {
		t.Errorf("real run missing:\n%s", out)
	}
	if err := exec.Command(bin, "-workload", "nope").Run(); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := exec.Command(bin, "-platform", "vax").Run(); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestExperimentsCLI(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "experiments")
	out := run(t, bin, "-list")
	for _, want := range []string{"fig1", "table3", "ext-dse"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}
	out = run(t, bin, "-only", "fig1,fig9")
	if !strings.Contains(out, "Avg_Hadoop") || !strings.Contains(out, "Block[MB]") {
		t.Errorf("artefacts missing:\n%s", out)
	}
	// CSV to files.
	outdir := filepath.Join(dir, "results")
	run(t, bin, "-only", "fig1", "-format", "csv", "-outdir", outdir)
	data, err := os.ReadFile(filepath.Join(outdir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "Suite,") {
		t.Errorf("CSV header wrong: %q", string(data[:20]))
	}
	// Unknown ids are all rejected upfront with the valid ids listed.
	msg, err := exec.Command(bin, "-only", "fig99,bogus,fig1").CombinedOutput()
	if err == nil {
		t.Error("unknown artefact accepted")
	}
	for _, want := range []string{"unknown artefact id(s)", "fig99", "bogus", "valid ids:", "table3"} {
		if !strings.Contains(string(msg), want) {
			t.Errorf("unknown-id error missing %q:\n%s", want, msg)
		}
	}
	if err := exec.Command(bin, "-format", "xml").Run(); err == nil {
		t.Error("unknown format accepted")
	}
	// -v reports the span summary on stderr.
	out = run(t, bin, "-only", "fig5", "-v")
	if !strings.Contains(out, "span expt.artefact") {
		t.Errorf("-v missing the artefact span summary:\n%s", out)
	}
}

func TestDseCLI(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "dse")
	out := run(t, bin, "-block", "256", "-freq", "1.8", "-cores", "8")
	for _, want := range []string{"atom-c2758", "xeon-e5-2420", "Pareto frontier"} {
		if !strings.Contains(out, want) {
			t.Errorf("dse output missing %q:\n%s", want, out)
		}
	}
}

func TestHadoopdCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	hadoopd := build(t, dir, "hadoopd")
	teragen := build(t, dir, "teragen")
	input := filepath.Join(dir, "in.txt")
	run(t, teragen, "-kind", "text", "-size", "16384", "-out", input)

	// The master binds a free port and announces it on stdout, so runs of
	// this test cannot collide with each other or with a stray process.
	master := exec.Command(hadoopd, "-role", "master", "-addr", "127.0.0.1:0")
	stdout, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		master.Process.Kill()
		master.Wait()
	}()
	// The line is printed once the master accepts connections; workers dial
	// once, so they start only after it.
	var addr string
	for sc := bufio.NewScanner(stdout); addr == "" && sc.Scan(); {
		if a, ok := strings.CutPrefix(sc.Text(), "master listening on "); ok {
			addr = a
		}
	}
	if addr == "" {
		t.Fatal("master exited without announcing its address")
	}

	worker := exec.Command(hadoopd, "-role", "worker", "-master", addr, "-id", "w0")
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		worker.Process.Kill()
		worker.Wait()
	}()

	out := filepath.Join(dir, "out.txt")
	res := run(t, hadoopd, "-role", "submit", "-master", addr,
		"-workload", "wordcount", "-input", input, "-reducers", "2", "-block", "4096", "-out", out)
	if !strings.Contains(res, "job done") {
		t.Errorf("submit output: %s", res)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\t") {
		t.Error("no key<TAB>count lines in the output")
	}
}

// startDaemon starts one hadoopd role, stopped with SIGKILL when the test
// ends, and returns it with the value of each announced "<what> listening
// on" line of its stdout (master, http), in wants' order.
func startDaemon(t *testing.T, hadoopd string, wants []string, args ...string) (*exec.Cmd, []string) {
	t.Helper()
	cmd := exec.Command(hadoopd, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	got := make([]string, len(wants))
	sc := bufio.NewScanner(stdout)
	for i := range wants {
		for got[i] == "" && sc.Scan() {
			got[i], _ = strings.CutPrefix(sc.Text(), wants[i]+" listening on ")
			if got[i] == sc.Text() {
				got[i] = ""
			}
		}
		if got[i] == "" {
			t.Fatalf("hadoopd %v exited without announcing its %s address", args, wants[i])
		}
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, got
}

// jobRow is the part of a /jobs entry the crash test reads.
type jobRow struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	MapsDone     int    `json:"maps_done"`
	MapsTotal    int    `json:"maps_total"`
	ReducesDone  int    `json:"reduces_done"`
	ReducesTotal int    `json:"reduces_total"`
}

// pollJobs reads the master's /jobs until ok accepts a row, and returns
// that row; it fails the test after 30 s.
func pollJobs(t *testing.T, httpAddr string, ok func(jobRow) bool) jobRow {
	t.Helper()
	var last []jobRow
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + httpAddr + "/jobs")
		if err != nil {
			continue
		}
		last = nil
		err = json.NewDecoder(resp.Body).Decode(&last)
		resp.Body.Close()
		for _, row := range last {
			if err == nil && ok(row) {
				return row
			}
		}
	}
	t.Fatalf("/jobs never showed the awaited job; last read %+v", last)
	return jobRow{}
}

// TestHadoopdMasterCrashResumes kills a snapshotting hadoopd master with
// SIGKILL — no clean Close, no final write — once /jobs shows a map done,
// then restarts the master on the same snapshot file with fresh workers:
// the job resumes from the journal and /jobs reports it done with every map
// and reducer counted.
func TestHadoopdMasterCrashResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("starts, kills and restarts hadoopd processes")
	}
	dir := t.TempDir()
	hadoopd := build(t, dir, "hadoopd")
	teragen := build(t, dir, "teragen")
	input := filepath.Join(dir, "in.txt")
	run(t, teragen, "-kind", "text", "-size", "4194304", "-out", input)
	fi, err := os.Stat(input)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "master.snap")
	// startCluster starts a master on the snapshot and two workers, and
	// returns them with the master's RPC and HTTP addresses.
	startCluster := func() (*exec.Cmd, []*exec.Cmd, string, string) {
		master, addrs := startDaemon(t, hadoopd, []string{"master", "http"},
			"-role", "master", "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-snapshot", snap)
		var workers []*exec.Cmd
		for _, id := range []string{"w0", "w1"} {
			w := exec.Command(hadoopd, "-role", "worker", "-master", addrs[0], "-id", id)
			if err := w.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				w.Process.Kill()
				w.Wait()
			})
			workers = append(workers, w)
		}
		return master, workers, addrs[0], addrs[1]
	}

	master, workers, addr, httpAddr := startCluster()
	submit := exec.Command(hadoopd, "-role", "submit", "-master", addr,
		"-workload", "wordcount", "-input", input, "-reducers", "2", "-block", "2048", "-out", filepath.Join(dir, "out.txt"))
	if err := submit.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		submit.Process.Kill()
		submit.Wait()
	})
	at := pollJobs(t, httpAddr, func(r jobRow) bool { return r.MapsDone > 0 })
	master.Process.Kill()
	master.Wait()
	for _, w := range workers {
		w.Process.Kill()
		w.Wait()
	}
	if at.State == "done" {
		t.Fatalf("the job finished before the kill (%+v): nothing was left to resume", at)
	}

	_, _, _, httpAddr = startCluster()
	done := pollJobs(t, httpAddr, func(r jobRow) bool { return r.ID == at.ID && r.State != "running" && r.State != "queued" })
	maps := int(fi.Size()+2047) / 2048
	if done.State != "done" || done.MapsDone != maps || done.MapsTotal != maps || done.ReducesDone != 2 || done.ReducesTotal != 2 {
		t.Errorf("resumed job = %+v, want done with %d of %d maps and 2 of 2 reducers", done, maps, maps)
	}
}

// TestHadoopsimTraceReplay is the engine -> trace -> tracer path for every
// workload, serial and one slot per CPU: a trace written live by
// `hadoopsim -real -trace` must replay into a timeline with the paper's
// four-way split and a critical path, skip no line, and price every paper
// phase under either core class.
func TestHadoopsimTraceReplay(t *testing.T) {
	dir := t.TempDir()
	hadoopsim := build(t, dir, "hadoopsim")
	tracer := build(t, dir, "tracer")
	for _, wl := range []string{"wordcount", "naivebayes", "grep", "sort", "terasort", "fpgrowth"} {
		for _, parallel := range []string{"1", "0"} {
			trace := filepath.Join(dir, wl+"-"+parallel+".jsonl")
			run(t, hadoopsim, "-workload", wl, "-real", "-realsize", "262144", "-parallel", parallel, "-trace", trace)
			out := run(t, tracer, trace)
			for _, want := range []string{"run " + wl + " ", "  paper split: ", "  critical path: "} {
				if !strings.Contains(out, want) {
					t.Errorf("%s -parallel %s: timeline missing %q:\n%s", wl, parallel, want, out)
				}
			}
			if strings.Contains(out, "skipped") {
				t.Errorf("%s -parallel %s: tracer skipped lines:\n%s", wl, parallel, out)
			}
		}
	}
	for wl, class := range map[string]string{"terasort": "little", "wordcount": "big"} {
		out := run(t, tracer, "-energy", "-default-class", class, filepath.Join(dir, wl+"-0.jsonl"))
		if !regexp.MustCompile(`(?m)^run ` + wl + ` \(epoch 0\): energy \S+ J, edp \S+ J·s over `).MatchString(out) {
			t.Errorf("%s as %s: no per-run energy line:\n%s", wl, class, out)
		}
		// Every paper bucket is priced. Shuffle alone may price at zero: these
		// map tasks spill once, so there is no map-side merge, and the
		// reduce-side merge rides the reduce interval (DESIGN §13).
		for _, bucket := range []string{"map", "sort", "shuffle", "reduce"} {
			m := regexp.MustCompile(`(?m)^  energy ` + bucket + ` +(\S+) J`).FindStringSubmatch(out)
			if m == nil || (m[1] == "0.000000" && bucket != "shuffle") {
				t.Errorf("%s as %s: no joules attributed to %s:\n%s", wl, class, bucket, out)
			}
		}
	}
}
