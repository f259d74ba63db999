package sim

// cache.go memoizes simulator outcomes across the evaluation pipeline. The
// same (workload, node config, data, block, frequency) cell recurs dozens
// of times across the paper's artefacts — Figs 5-9 share their 512 MB
// grid, Table 3 and Fig 17 score identical (platform, core count) cells,
// and the scheduling search revisits every one of them — so a process-wide
// result cache turns the full regeneration from O(artefacts x cells) into
// O(distinct cells). The cache is concurrency-safe and single-flight:
// duplicate cells requested while the first is still computing coalesce
// onto the in-flight computation instead of recomputing it, which matters
// once the sweep executor fans cells out across a worker pool.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"heterohadoop/internal/obs"
)

// CacheStats is a snapshot of the result-cache counters.
type CacheStats struct {
	// Hits counts lookups served by an already-completed entry.
	Hits uint64
	// Misses counts lookups that had to execute the simulator.
	Misses uint64
	// Coalesced counts lookups that joined an in-flight computation
	// (single-flight duplicates).
	Coalesced uint64
	// InFlight is the number of computations executing right now.
	InFlight int
	// Entries is the number of memoized results.
	Entries int
}

// HitRate returns the fraction of lookups served without running the
// simulator (completed hits plus coalesced joins), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	served := s.Hits + s.Coalesced
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// cacheEntry is one memoized (or in-flight) simulation. done is closed
// when report/err are final; waiters block on it.
type cacheEntry struct {
	done   chan struct{}
	report Report
	err    error
}

// resultCache is the concurrency-safe single-flight memo table.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   CacheStats
}

func newResultCache() *resultCache {
	return &resultCache{entries: make(map[string]*cacheEntry)}
}

// cacheOutcome classifies how one lookup was served; RunCached turns
// it into the matching observer counter.
type cacheOutcome int

const (
	outcomeMiss cacheOutcome = iota
	outcomeHit
	outcomeCoalesced
)

// do returns the memoized result for key, computing it with fn on the
// first request. Concurrent requests for the same key share one fn call. A
// waiter whose ctx expires abandons the in-flight computation (which
// completes for other waiters), and an entry whose computation itself failed with a context error is evicted, so one
// cancelled run cannot poison the process-wide cache with a cancellation
// error. A coalesced waiter whose own ctx is still live when the computing
// goroutine is cancelled does not inherit that foreign cancellation: the
// entry has been evicted, so the waiter loops and retries the lookup
// (joining a fresh computation or running fn itself). The key is taken as
// bytes so the hot path — a hit — does a map lookup through string(key)
// without allocating; only a miss copies the key into the map.
func (c *resultCache) do(ctx context.Context, key []byte, fn func() (Report, error)) (Report, cacheOutcome, error) {
	c.mu.Lock()
	for {
		e, ok := c.entries[string(key)]
		if !ok {
			break
		}
		outcome := outcomeHit
		select {
		case <-e.done:
			c.stats.Hits++
		default:
			c.stats.Coalesced++
			outcome = outcomeCoalesced
		}
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return Report{}, outcome, fmt.Errorf("sim: cache wait cancelled: %w", ctx.Err())
		}
		if isContextErr(e.err) && ctx.Err() == nil {
			// The computation we joined was cancelled, but we weren't: its
			// entry was evicted above, so retry rather than returning the
			// foreign cancellation as our own result.
			c.mu.Lock()
			continue
		}
		return e.report.clone(), outcome, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[string(key)] = e
	c.stats.Misses++
	c.stats.InFlight++
	c.mu.Unlock()

	e.report, e.err = fn()

	c.mu.Lock()
	c.stats.InFlight--
	if isContextErr(e.err) {
		// Don't memoize a cancellation: the cell was never computed. Guard
		// against a concurrent reset having replaced the table.
		if cur, ok := c.entries[string(key)]; ok && cur == e {
			delete(c.entries, string(key))
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e.report.clone(), outcomeMiss, e.err
}

// isContextErr reports whether err came from context cancellation or
// deadline expiry — the error class that is never memoized.
func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// snapshot returns the current counters.
func (c *resultCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// reset drops all entries and zeroes the counters. In-flight computations
// finish against their old entries; subsequent lookups start fresh.
func (c *resultCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
	c.stats = CacheStats{}
}

// clone returns a Report safe to hand to a caller: Report is a value type
// except for the Phases map, which cache hits would otherwise share.
func (r Report) clone() Report {
	if r.Phases == nil {
		return r
	}
	phases := make(map[Phase]PhaseStat, len(r.Phases))
	for ph, st := range r.Phases {
		phases[ph] = st
	}
	r.Phases = phases
	return r
}

// defaultCache is the process-wide memo table behind RunCached.
var defaultCache = newResultCache()

// RunCached is Run behind the process-wide result cache: the first request
// for a cell simulates it, duplicates — sequential or concurrent — are
// served from memory. Defaults are applied before keying, so a JobSpec
// with explicit Hadoop defaults and one relying on zero values coalesce. An
// Observer carried by ctx receives sim.cache.hits / sim.cache.misses /
// sim.cache.coalesced counters per lookup; cancellation aborts the lookup
// (including a coalesced wait on another goroutine's computation) with an
// error wrapping ctx.Err(), and a computation that itself ends in a
// context error is not memoized.
func RunCached(ctx context.Context, cluster Cluster, job JobSpec) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, fmt.Errorf("sim: %s: cancelled: %w", job.Name, err)
	}
	job.setDefaults(cluster.Node)
	k := keyPool.Get().(*keyBuf)
	k.b = k.b[:0]
	k.cluster(cluster)
	k.job(job)
	rep, outcome, err := defaultCache.do(ctx, k.b, func() (Report, error) {
		return Run(ctx, cluster, job)
	})
	keyPool.Put(k)
	if ob := obs.FromContext(ctx); ob.Enabled() {
		switch outcome {
		case outcomeHit:
			ob.Count("sim.cache.hits", 1)
		case outcomeMiss:
			ob.Count("sim.cache.misses", 1)
		case outcomeCoalesced:
			ob.Count("sim.cache.coalesced", 1)
		}
	}
	return rep, err
}

// Stats snapshots the result-cache counters for observability.
func Stats() CacheStats { return defaultCache.snapshot() }

// ResetCache drops every memoized result and zeroes the counters — used by
// benchmarks that need cold-cache timings and by tests isolating counter
// assertions.
func ResetCache() { defaultCache.reset() }
