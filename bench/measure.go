package main

// measure.go times operations: a deadline around every one, a closed loop of
// clients, process CPU and peak RSS from getrusage, and the order statistics
// the reports are made of.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opFunc runs one job as the given client and verifies its output.
type opFunc func(ctx context.Context, client int) error

// withDeadline runs op under a deadline. An op that ignores its context is
// abandoned when the deadline passes, so a hang costs one failed operation,
// not the run.
func withDeadline(d time.Duration, client int, op opFunc) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- op(ctx, client) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("deadline of %v exceeded", d)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window is what one measured stretch of operations produced.
type window struct {
	latencies []float64 // seconds, one per verified job
	cpuPerJob float64   // process CPU seconds per verified job
	busy      float64   // seconds the jobs took (wall of the loop, less forced GCs)
	attempted int
	failed    int
	firstErr  error
}

func (w window) jobsPerSecond() float64 {
	if w.busy <= 0 {
		return 0
	}
	return float64(len(w.latencies)) / w.busy
}

// measure runs op for at least d and at least minOps operations per client.
//
// One client is the batch protocol: runtime.GC() before each operation, the
// operation's own wall and CPU deltas recorded, CPU reported as typical().
// Several clients form a closed loop — each submits its next job when the
// previous one is verified — and CPU is the window's total over its jobs.
func measure(d time.Duration, minOps, clients int, deadline time.Duration, op opFunc) window {
	var w window
	if clients <= 1 {
		var cpus []float64
		begin := time.Now()
		for n := 0; n < minOps || time.Since(begin) < d; n++ {
			runtime.GC()
			c0, t0 := cpuSeconds(), time.Now()
			err := withDeadline(deadline, 0, op)
			wall := time.Since(t0).Seconds()
			w.attempted++
			w.busy += wall
			if err != nil {
				w.fail(err)
				continue
			}
			w.latencies = append(w.latencies, wall)
			cpus = append(cpus, cpuSeconds()-c0)
		}
		w.cpuPerJob = typical(cpus)
		return w
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	runtime.GC()
	c0, begin := cpuSeconds(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < minOps || time.Since(begin) < d; n++ {
				t0 := time.Now()
				err := withDeadline(deadline, c, op)
				wall := time.Since(t0).Seconds()
				mu.Lock()
				w.attempted++
				if err != nil {
					w.fail(err)
				} else {
					w.latencies = append(w.latencies, wall)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.busy = time.Since(begin).Seconds()
	if n := len(w.latencies); n > 0 {
		w.cpuPerJob = (cpuSeconds() - c0) / float64(n)
	}
	return w
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// typical is the location a run reports for its job times: the mean of the
// faster half of the samples. Interference from the machine only ever slows
// a job, and terasort's job times are bimodal (a job either re-faults its
// arenas or finds them mapped), so the median jumps between modes from run
// to run; the faster half sits inside the undisturbed mode and still
// averages many samples. Measured on ten seeds per workload it spread 3 to 9
// percent between runs where the median spread 3 to 15 (see README.md).
func typical(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return meanOf(s[:(len(s)+1)/2])
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summary is the distribution of one metric's samples as reported in the
// result file.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize takes the quartiles the way Python's statistics.quantiles(xs,
// n=4) does (the exclusive method), so a spread computed here is the spread
// the acceptance driver computes from the same values.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	cut := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: cut(2), Q1: cut(1), Q3: cut(3), Min: s[0], Max: s[n-1], N: n}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
