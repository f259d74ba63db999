package main

// cluster.go starts and stops the loopback dist cluster: one master, its
// workers polling in RunForeverCtx, and one net/rpc connection per client.

import (
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"heterohadoop/internal/dist"
	"heterohadoop/internal/obs"
)

type cluster struct {
	master   *dist.Master
	workers  []*dist.Worker
	clients  []*rpc.Client
	snapPath string // "" with snapshots off
	// jobs counts the submissions made through runCluster, so per-job
	// averages of the workers' lifetime counters have their denominator.
	jobs atomic.Int64

	stop    context.CancelFunc
	running sync.WaitGroup
	mu      sync.Mutex
	runErr  error // first worker loop error that was not the cancellation
}

// startCluster starts a master and its workers with the option values
// cmd/hadoopd's flags default to (worker-served shuffle, 10 ms poll, 10 s
// task timeout, 4 concurrent jobs). snapshot turns WithSnapshotPath on; a
// non-nil observer is attached to master and workers.
func startCluster(dir string, workers, clients int, snapshot bool, ob obs.Observer) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{}
	if snapshot {
		c.snapPath = filepath.Join(dir, "master.snapshot")
	}
	m, err := dist.StartMaster("127.0.0.1:0",
		dist.WithTaskTimeout(10*time.Second),
		dist.WithSpeculativeFraction(0.5),
		dist.WithMaxConcurrentJobs(4),
		dist.WithWorkerTimeout(30*time.Second),
		dist.WithSnapshotPath(c.snapPath),
		dist.WithObserver(ob))
	if err != nil {
		return nil, err
	}
	c.master = m
	ctx, stop := context.WithCancel(context.Background())
	c.stop = stop
	for i := 0; i < workers; i++ {
		w, err := dist.ConnectWorker(fmt.Sprintf("bench-worker-%d", i), m.Addr(),
			dist.WithPollInterval(10*time.Millisecond),
			dist.WithObserver(ob))
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.running.Add(1)
		go func() {
			defer c.running.Done()
			// A one-shot Run may see "no jobs" before the first submission
			// and exit; the persistent loop only ends on cancellation.
			if err := w.RunForeverCtx(ctx); err != nil && !errors.Is(err, context.Canceled) {
				c.mu.Lock()
				if c.runErr == nil {
					c.runErr = err
				}
				c.mu.Unlock()
			}
		}()
	}
	for i := 0; i < clients; i++ {
		cl, err := rpc.Dial("tcp", m.Addr())
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// tasksRun sums the task attempts the workers completed.
func (c *cluster) tasksRun() (tasks, reportErrors int) {
	for _, w := range c.workers {
		tasks += w.TasksRun()
		reportErrors += w.ReportErrors()
	}
	return tasks, reportErrors
}

// close stops the workers, waits for their loops, closes every connection
// and removes the snapshot. It returns the first worker loop error.
func (c *cluster) close() error {
	c.stop()
	c.running.Wait()
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
	c.master.Close()
	if c.snapPath != "" {
		os.Remove(c.snapPath)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}
