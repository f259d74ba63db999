package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func testJob(t testing.TB) (Cluster, JobSpec) {
	t.Helper()
	w, err := workloads.ByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(AtomNode(8)), JobSpec{
		Name:        "wordcount",
		Spec:        w.Spec(),
		DataPerNode: units.GB,
		BlockSize:   256 * units.MB,
		Frequency:   1.8 * units.GHz,
	}
}

func TestRunCachedMemoizes(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cluster, job := testJob(t)

	r1, err := RunCached(context.Background(), cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCached(context.Background(), cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("cached report differs from the computed one")
	}
	direct, err := Run(context.Background(), cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, direct) {
		t.Error("cached report differs from a direct Run")
	}

	s := Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Coalesced != 0 {
		t.Errorf("stats after 2 lookups: %+v, want 1 miss / 1 hit", s)
	}
	if s.Entries != 1 || s.InFlight != 0 {
		t.Errorf("stats: %+v, want 1 entry and 0 in flight", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("hit rate %v, want 0.5", got)
	}
}

func TestRunCachedCanonicalizesDefaults(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cluster, job := testJob(t)
	if _, err := RunCached(context.Background(), cluster, job); err != nil {
		t.Fatal(err)
	}
	// Spelling out Hadoop's defaults must land on the same cache cell.
	explicit := job
	explicit.SortBuffer = 100 * units.MB
	explicit.MergeFactor = 10
	explicit.Reducers = cluster.Node.ActiveCores
	if _, err := RunCached(context.Background(), cluster, explicit); err != nil {
		t.Fatal(err)
	}
	if s := Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("defaulted and explicit specs did not coalesce: %+v", s)
	}
	// A genuinely different knob must not.
	other := job
	other.Frequency = 1.2 * units.GHz
	if _, err := RunCached(context.Background(), cluster, other); err != nil {
		t.Fatal(err)
	}
	if s := Stats(); s.Misses != 2 {
		t.Errorf("distinct frequency shared a cache cell: %+v", s)
	}
}

func TestRunCachedReturnsIndependentReports(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cluster, job := testJob(t)
	r1, err := RunCached(context.Background(), cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	r1.Phases[PhaseMap] = PhaseStat{Time: 12345}
	r2, err := RunCached(context.Background(), cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Phases[PhaseMap].Time == 12345 {
		t.Error("mutating a returned report leaked into the cache")
	}
}

func TestSingleFlightCoalescesDuplicates(t *testing.T) {
	c := newResultCache()
	var calls atomic.Int32
	gate := make(chan struct{})
	running := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	reports := make([]Report, waiters)

	// Leader: blocks inside fn so the entry stays in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reports[0], _, _ = c.do(context.Background(), []byte("cell"), func() (Report, error) {
			calls.Add(1)
			close(running)
			<-gate
			return Report{Workload: "leader"}, nil
		})
	}()
	<-running

	// Followers arriving mid-flight must coalesce, not recompute.
	for i := 1; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], _, _ = c.do(context.Background(), []byte("cell"), func() (Report, error) {
				calls.Add(1)
				return Report{Workload: "follower"}, nil
			})
		}()
	}
	waitFor(t, func() bool { return c.snapshot().Coalesced == waiters-1 })
	if s := c.snapshot(); s.InFlight != 1 {
		t.Errorf("in-flight gauge %d while the leader computes, want 1", s.InFlight)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("%d computations for one key, want 1", got)
	}
	for i, r := range reports {
		if r.Workload != "leader" {
			t.Errorf("waiter %d got %q, want the leader's result", i, r.Workload)
		}
	}
	s := c.snapshot()
	if s.Misses != 1 || s.Coalesced != waiters-1 || s.InFlight != 0 {
		t.Errorf("final stats %+v, want 1 miss, %d coalesced, 0 in flight", s, waiters-1)
	}
}

// TestCacheWaiterSurvivesForeignCancellation pins the coalescing contract
// under cancellation: a waiter whose own context is live must not inherit
// the computing goroutine's context.Canceled — it retries the lookup and
// computes the cell itself.
func TestCacheWaiterSurvivesForeignCancellation(t *testing.T) {
	c := newResultCache()
	key := []byte("cell")
	started := make(chan struct{})
	release := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()

	firstErr := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx1, key, func() (Report, error) {
			close(started)
			<-release
			return Report{}, fmt.Errorf("sim: cell aborted: %w", ctx1.Err())
		})
		firstErr <- err
	}()
	<-started

	// An independent sweep with a live context coalesces onto the
	// in-flight cell.
	type outcome struct {
		rep Report
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		rep, _, err := c.do(context.Background(), key, func() (Report, error) {
			return Report{Workload: "retry"}, nil
		})
		second <- outcome{rep, err}
	}()
	waitFor(t, func() bool { return c.snapshot().Coalesced == 1 })

	// Cancel the computing goroutine's sweep; its error must stay its own.
	cancel1()
	close(release)
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled computation returned %v, want context.Canceled", err)
	}
	got := <-second
	if got.err != nil {
		t.Fatalf("live waiter inherited foreign cancellation: %v", got.err)
	}
	if got.rep.Workload != "retry" {
		t.Errorf("live waiter got %q, want its own retried computation", got.rep.Workload)
	}
	if s := c.snapshot(); s.Entries != 1 {
		t.Errorf("entries %d after retry, want the retried cell memoized", s.Entries)
	}
}

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
