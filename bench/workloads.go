package main

// workloads.go defines the six workloads and how one instance of each is set
// up, run once, and torn down. Everything the program under test sees is
// bytes generated from the seed.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"heterohadoop/internal/dist"
	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

type runtimeKind int

const (
	onEngine    runtimeKind = iota // Engine.RunContext over an in-memory store
	onEngineOOC                    // Engine.RunFileContext with a spill directory
	onCluster                      // loopback master + workers, jobs over net/rpc
)

// spec is one workload's fixed shape.
type spec struct {
	name string
	why  string
	kind runtimeKind
	// job is the registered workload name (wordcount, terasort, grep).
	job        string
	pattern    string
	inputBytes int
	blockBytes int
	reducers   int
	// sortBuffer, when set, replaces the 100 MB default so map tasks spill.
	sortBuffer int
	// clients is the number of closed-loop submitters; 1 for batch jobs.
	clients  int
	deadline time.Duration
	// warmUp and minOps are jobs per client: run before measuring, and the
	// least a measured pass runs however short its time.
	warmUp int
	minOps int
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// specs lists the workloads in the order they run. The why strings are the
// ones BENCHMARK.json carries.
var specs = []spec{
	{
		name: "wordcount-engine", job: "wordcount", kind: onEngine,
		why:        "8 MB Zipf text in-process: the map-side sort is over 90 % of wall and the combiner empties the shuffle",
		inputBytes: 8 * mb, blockBytes: 512 * kb, reducers: 4, clients: 1, deadline: 60 * time.Second, warmUp: 1, minOps: 3,
	},
	{
		name: "terasort-engine", job: "terasort", kind: onEngine,
		why:        "16 MB TeraGen in-process, no combiner: every byte crosses shuffle, merge and identity reduce; memory-bound",
		inputBytes: 16 * mb, blockBytes: mb, reducers: 4, clients: 1, deadline: 60 * time.Second, warmUp: 1, minOps: 3,
	},
	{
		name: "grep-engine", job: "grep", pattern: "ou", kind: onEngine,
		why:        "32 MB text, pattern ou: read and map scan do the work, sort/shuffle/reduce almost none (the no-change case)",
		inputBytes: 32 * mb, blockBytes: 2 * mb, reducers: 4, clients: 1, deadline: 60 * time.Second, warmUp: 1, minOps: 3,
	},
	{
		name: "terasort-ooc", job: "terasort", kind: onEngineOOC,
		why:        "64 MB TeraGen from a file, 2 MB sort buffer, spill dir: the shuffle as compressed segment files and external merge",
		inputBytes: 64 * mb, blockBytes: 4 * mb, reducers: 4, sortBuffer: 2 * mb, clients: 1, deadline: 60 * time.Second, warmUp: 1, minOps: 3,
	},
	{
		name: "terasort-dist", job: "terasort", kind: onCluster,
		why:        "the terasort-engine input through a loopback master and workers with snapshots on: RPC, fetch, scheduling, snapshot",
		inputBytes: 16 * mb, blockBytes: mb, reducers: 4, clients: 1, deadline: 60 * time.Second, warmUp: 1, minOps: 3,
	},
	{
		name: "smalljobs-dist", job: "terasort", kind: onCluster,
		why:        "closed loop of 64 KB jobs from 2 clients on the same cluster: compute under 1 ms, so the control plane is the latency",
		inputBytes: 64 * kb, blockBytes: 16 * kb, reducers: 2, clients: 2, deadline: 5 * time.Second, warmUp: 20, minOps: 50,
	},
}

// tinyDivisor shrinks every batch workload for the smoke test; the small-job
// workload is already small and only runs fewer jobs.
const tinyDivisor = 256

func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	if s.clients > 1 {
		s.warmUp, s.minOps = 2, 5
		return s
	}
	s.inputBytes /= div
	s.blockBytes /= div
	s.sortBuffer /= div
	return s
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// setupTimes are the parts of set-up the per-layer run reports on their own.
type setupTimes struct {
	generate  time.Duration
	hdfsWrite time.Duration
}

// instance is one workload made ready to run: input generated, expectation
// computed, job built, store filled or cluster started.
type instance struct {
	spec  spec
	dir   string
	input []byte // nil for the file-backed workload
	path  string // the input file of the file-backed workload
	want  expectation
	times setupTimes

	job     mapreduce.Job
	store   *hdfs.Store
	cluster *cluster
}

// newInstance sets a workload up under dir, which it owns and close removes.
func newInstance(s spec, seed int64, dir string, workers int) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &instance{spec: s, dir: dir}
	w, err := workloads.ByName(s.job)
	if err != nil {
		return nil, err
	}

	t := time.Now()
	if s.kind == onEngineOOC {
		in.path = filepath.Join(dir, "input")
		f, err := os.Create(in.path)
		if err != nil {
			return nil, err
		}
		_, err = workloads.StreamTo(f, w.Generate, units.Bytes(s.inputBytes), seed, units.MB)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("streaming input: %w", err)
		}
	} else {
		in.input = w.Generate(units.Bytes(s.inputBytes), seed)
	}
	in.times.generate = time.Since(t)

	r, closeInput, err := in.openInput()
	if err != nil {
		return nil, err
	}
	in.want, err = expect(s.job, s.pattern, s.reducers, r)
	closeInput()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	if s.kind != onCluster {
		if err := in.buildJob(w); err != nil {
			return nil, err
		}
	}
	switch {
	case s.kind == onEngine:
		t = time.Now()
		in.store, err = hdfs.NewStore(hdfs.Config{BlockSize: units.Bytes(s.blockBytes), Replication: 1})
		if err != nil {
			return nil, err
		}
		if _, err := in.store.Write("input", in.input); err != nil {
			return nil, err
		}
		in.times.hdfsWrite = time.Since(t)
	case s.kind == onCluster:
		in.cluster, err = startCluster(filepath.Join(dir, "cluster"), workers, s.clients, true, nil)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// openInput returns a reader over the generated input.
func (in *instance) openInput() (io.Reader, func(), error) {
	if in.path == "" {
		return bytes.NewReader(in.input), func() {}, nil
	}
	f, err := os.Open(in.path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// buildJob assembles the engine job. The file-backed terasort samples its
// range cuts from the first block, since the input is never resident.
func (in *instance) buildJob(w workloads.Workload) error {
	s := in.spec
	cfg := mapreduce.DefaultConfig(s.name)
	cfg.NumReducers = s.reducers
	if s.sortBuffer > 0 {
		cfg.SortBuffer = units.Bytes(s.sortBuffer)
	}
	var err error
	if s.kind == onEngineOOC {
		cfg.SpillDir = filepath.Join(in.dir, "spill")
		cfg.SpillMemory = cfg.SortBuffer
		head := make([]byte, s.blockBytes)
		f, ferr := os.Open(in.path)
		if ferr != nil {
			return ferr
		}
		n, rerr := io.ReadFull(f, head)
		f.Close()
		if rerr != nil && rerr != io.ErrUnexpectedEOF {
			return rerr
		}
		head = head[:bytes.LastIndexByte(head[:n], '\n')+1]
		var cuts []string
		cuts, err = workloads.SampleCuts(head, s.reducers, workloads.TeraKey)
		in.job = workloads.BuildTeraSortWithCuts(cfg, cuts)
	} else {
		in.job, err = w.Build(cfg, in.input)
	}
	return err
}

// close tears the instance down and reports anything it left on disk.
func (in *instance) close() error {
	var err error
	if in.cluster != nil {
		err = in.cluster.close()
	}
	if in.path != "" {
		os.Remove(in.path)
	}
	if lerr := leftovers(in.dir); err == nil {
		err = lerr
	}
	os.RemoveAll(in.dir)
	return err
}

// leftovers reports files still present under dir: spill trees, snapshots
// and worker directories must all be gone once their owners are closed.
func leftovers(dir string) error {
	var found []string
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			found = append(found, p)
		}
		return nil
	})
	if len(found) > 0 {
		return fmt.Errorf("teardown left %d files behind, first %s", len(found), found[0])
	}
	return nil
}

// runOnce runs the workload's job once on the instance's own runtime and
// verifies the output; it is the operation every end-to-end number times.
func (in *instance) runOnce(ctx context.Context, client int) error {
	if in.spec.kind == onCluster {
		return in.runCluster(ctx, in.cluster, client)
	}
	_, err := in.runEngine(ctx, nil)
	return err
}

// runEngine runs the job in-process, materialises the output into the
// digest and checks it. A non-nil observer rides the context.
func (in *instance) runEngine(ctx context.Context, ob obs.Observer) (mapreduce.Counters, error) {
	ctx = obs.NewContext(ctx, ob)
	eng := mapreduce.NewEngine(in.store)
	var res *mapreduce.Result
	var err error
	if in.spec.kind == onEngineOOC {
		res, err = eng.RunFileContext(ctx, in.job, in.path, units.Bytes(in.spec.blockBytes))
	} else {
		res, err = eng.RunContext(ctx, in.job, "input")
	}
	if err != nil {
		if res != nil {
			res.Close()
		}
		return mapreduce.Counters{}, err
	}
	err = in.verify(res)
	if cerr := res.Close(); err == nil {
		err = cerr
	}
	return res.Counters, err
}

// runCluster submits the job over net/rpc exactly as `hadoopd -role submit`
// does, bounded by ctx, and verifies the reply.
func (in *instance) runCluster(ctx context.Context, cl *cluster, client int) error {
	args := dist.SubmitArgs{
		Desc:      dist.JobDescriptor{Workload: in.spec.job, NumReducers: in.spec.reducers},
		Input:     in.input,
		BlockSize: in.spec.blockBytes,
	}
	cl.jobs.Add(1)
	var res mapreduce.Result
	call := cl.clients[client].Go("Master.Submit", args, &res, nil)
	select {
	case <-call.Done:
		if call.Error != nil {
			return call.Error
		}
	case <-ctx.Done():
		return ctx.Err()
	}
	return in.verify(&res)
}

// verify materialises a result into a digest and holds it to the reference.
func (in *instance) verify(res *mapreduce.Result) error {
	var d digest
	if err := res.MaterializeOutputTo(&d); err != nil {
		return err
	}
	return in.want.check(&d)
}
