// Command hadoopd runs the distributed MapReduce runtime as separate
// processes — a master plus workers over TCP, the shape of the paper's
// 3-node clusters.
//
// Usage:
//
//	hadoopd -role master -addr 127.0.0.1:4000
//	hadoopd -role worker -master 127.0.0.1:4000 -id node1-slot0
//	hadoopd -role submit -master 127.0.0.1:4000 -workload wordcount \
//	        -input data.txt -reducers 4 -block 65536
//
// Both long-running roles accept -trace FILE to stream a JSONL
// observability trace (dist.submit/dist.task spans, per-task phase events,
// reassignment and speculation counters, map/reduce progress) and
// -http ADDR to serve the live plane — Prometheus /metrics, /jobs and
// /tasks JSON status, and net/http/pprof — while running. Both exit
// cleanly on SIGINT/SIGTERM, flushing the trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/rpc"
	"os"
	"os/signal"
	"syscall"
	"time"

	"heterohadoop/internal/dist"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/obs/energy"
	"heterohadoop/internal/obs/httpd"
)

func main() {
	var (
		role     = flag.String("role", "", "master|worker|submit")
		addr     = flag.String("addr", "127.0.0.1:4000", "master listen address (role=master)")
		master   = flag.String("master", "127.0.0.1:4000", "master address (worker/submit)")
		id       = flag.String("id", "", "worker id (role=worker)")
		workload = flag.String("workload", "wordcount", "registered workload name (role=submit)")
		input    = flag.String("input", "", "input file (role=submit)")
		reducers = flag.Int("reducers", 2, "reduce-task count (role=submit)")
		block    = flag.Int("block", 64*1024, "split size in bytes (role=submit)")
		pattern  = flag.String("pattern", "", "grep pattern (role=submit, workload=grep)")
		timeout  = flag.Duration("task-timeout", 10*time.Second, "task reassignment timeout (role=master)")
		specFrac = flag.Float64("spec-fraction", 0.5, "speculative-execution age fraction of the timeout (role=master)")
		maxJobs  = flag.Int("max-jobs", 4, "concurrent running job cap (role=master)")
		workerTO = flag.Duration("worker-timeout", 30*time.Second, "silent-worker eviction window (role=master)")
		snapshot = flag.String("snapshot", "", "persist master state to this file and resume from it on start: a checkpoint plus one appended record per transition, compacted once the records outgrow 4x the checkpoint; per-job data files (FILE.job-*) live beside it; survives a killed master, not a power loss (no fsync) (role=master)")
		poll     = flag.Duration("poll", 10*time.Millisecond, "longest the master holds an idle poll or an empty fetch (role=worker)")
		spillDir = flag.String("spill-dir", "", "spill map tasks to checksummed segment files under this directory and serve their output from there, bounding a map task's memory by its sort buffer (role=worker)")
		trace    = flag.String("trace", "", "stream a JSONL observability trace to this file (master/worker)")
		httpAddr = flag.String("http", "", "serve the live plane (/metrics, /jobs, /tasks, pprof) on this address (master/worker)")
		powerArg = flag.String("power-profile", "", "core-class power profile: big, little, or a JSON profile file — stamps the class on phase events and enables hh_energy_joules/hh_edp on /metrics (master/worker)")
		out      = flag.String("out", "", "output file for results (role=submit; default stdout)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The observer stack is shared by the master and worker roles; with
	// neither -trace nor -http it stays on the allocation-free no-op path.
	// -http needs a Collector to aggregate /metrics from; when both flags
	// are set the collector and the trace writer see every event via Tee.
	ob := obs.Nop
	var tw *obs.TraceWriter
	var col *obs.Collector
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw = obs.NewTraceWriter(f)
		ob = tw
	}
	if *httpAddr != "" {
		col = obs.NewCollector()
		if tw != nil {
			ob = obs.Tee(col, tw)
		} else {
			ob = col
		}
	}
	// -power-profile selects the node's power model: the collector
	// estimates joules per (job, phase, class) so /metrics exports
	// hh_energy_joules and hh_edp, and the worker declares the class in
	// every poll, which stamps it on its phase events and on the master's
	// schedule events for its tasks.
	coreClass := ""
	if *powerArg != "" {
		prof, err := energy.Select(*powerArg)
		if err != nil {
			fatal(err)
		}
		coreClass = prof.ClassName()
		if col != nil {
			col.SetEnergyModel(prof)
		}
	}
	flushTrace := func() {
		if tw == nil {
			return
		}
		if err := tw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	// serveHTTP starts the live plane when -http is set; status endpoints
	// are wired per role (the master exposes its job/task tables, workers
	// serve metrics and pprof only).
	serveHTTP := func(opts ...httpd.Option) *httpd.Server {
		if col == nil {
			return nil
		}
		s := httpd.New(col, opts...)
		a, err := s.Serve(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("http listening on %s\n", a)
		return s
	}

	switch *role {
	case "master":
		m, err := dist.StartMaster(*addr,
			dist.WithTaskTimeout(*timeout),
			dist.WithSpeculativeFraction(*specFrac),
			dist.WithMaxConcurrentJobs(*maxJobs),
			dist.WithWorkerTimeout(*workerTO),
			dist.WithSnapshotPath(*snapshot),
			dist.WithObserver(ob))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("master listening on %s\n", m.Addr())
		srv := serveHTTP(
			httpd.WithJobStatus(func() any { return m.Jobs() }),
			httpd.WithTaskStatus(func(job string) any { return m.TaskStatuses(job) }))
		<-ctx.Done()
		if srv != nil {
			srv.Close()
		}
		m.Close()
		flushTrace()
	case "worker":
		if *id == "" {
			*id = fmt.Sprintf("worker-%d", os.Getpid())
		}
		w, err := dist.ConnectWorker(*id, *master,
			dist.WithPollInterval(*poll),
			dist.WithSpillDir(*spillDir),
			dist.WithCoreClass(coreClass),
			dist.WithObserver(ob))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("worker %s polling %s\n", *id, *master)
		srv := serveHTTP()
		err = w.RunForeverCtx(ctx)
		if srv != nil {
			srv.Close()
		}
		w.Close() // removes the spill tree on SIGINT/SIGTERM shutdown
		flushTrace()
		if err != nil && ctx.Err() == nil {
			fatal(err)
		}
	case "submit":
		if *input == "" {
			fatal(fmt.Errorf("submit needs -input"))
		}
		data, err := os.ReadFile(*input)
		if err != nil {
			fatal(err)
		}
		client, err := rpc.Dial("tcp", *master)
		if err != nil {
			fatal(err)
		}
		defer client.Close()
		desc := dist.JobDescriptor{Workload: *workload, NumReducers: *reducers, Aux: []byte(*pattern)}
		var res mapreduce.Result
		start := time.Now()
		if err := client.Call("Master.Submit", dist.SubmitArgs{Desc: desc, Input: data, BlockSize: *block}, &res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "job done in %v: %v\n", time.Since(start).Round(time.Millisecond), res.Counters)
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := res.MaterializeOutputTo(w); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown role %q (master|worker|submit)", *role))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
