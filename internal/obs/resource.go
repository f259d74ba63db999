package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// resource.go is the per-phase resource sampling layer: each phase interval
// carries a ResourceDelta — CPU time, bytes moved and heap allocation over
// the interval — so an energy model can turn the paper's per-phase
// execution-time breakdown into a per-phase *energy* breakdown.
//
// The sampling contract mirrors PhaseClock's: the inert zero clock reads no
// clocks at all (neither wall, CPU nor heap), so the uninstrumented hot
// path stays allocation-free and branch-cheap. Sampling only happens
// between Start and Emit of an enabled clock.

// ResourceDelta is the resource consumption attributed to one phase
// interval.
//
// CPU is the process-wide CPU time (user+system) that elapsed during the
// interval. Being process-wide it over-attributes when other goroutines run
// concurrently with the measured phase — a deliberate trade: per-goroutine
// CPU clocks are not portable, and for the energy model an estimate of how
// busy the *node* was during the phase is exactly what the paper's
// wall-socket methodology measures. On platforms without getrusage the
// delta falls back to wall×GOMAXPROCS with CPUEstimated set.
type ResourceDelta struct {
	// CPU is the process CPU time (utime+stime) spent during the interval,
	// clamped to [0, wall×GOMAXPROCS].
	CPU time.Duration
	// CPUEstimated reports that CPU is the wall×GOMAXPROCS fallback rather
	// than a measured rusage delta.
	CPUEstimated bool
	// ReadBytes and WrittenBytes are the bytes the phase moved through
	// input, spill or shuffle IO, threaded from the emitter's own counters.
	ReadBytes    int64
	WrittenBytes int64
	// AllocBytes is the heap allocation delta over the interval
	// (cumulative /gc/heap/allocs:bytes, process-wide like CPU).
	AllocBytes int64
}

// Tick is one resource sample taken by PhaseClock.Start: the phase start
// wall time plus the CPU and heap readings the matching Emit subtracts.
// The zero Tick (from the inert zero clock) is recognizable via IsZero.
type Tick struct {
	wall time.Time
	cpu  time.Duration // -1 when the platform has no CPU clock
	heap uint64
}

// IsZero reports whether the tick came from an inert zero clock (no wall
// clock was read).
func (t Tick) IsZero() bool { return t.wall.IsZero() }

// newTick samples the wall clock, process CPU time and cumulative heap
// allocation. Only called on enabled clocks.
func newTick() Tick {
	t := Tick{wall: time.Now(), cpu: -1}
	if cpu, ok := processCPUTime(); ok {
		t.cpu = cpu
	}
	t.heap = heapAllocBytes()
	return t
}

// heapSample is the runtime/metrics key for cumulative heap allocation.
const heapSample = "/gc/heap/allocs:bytes"

// samplePool recycles the one-element metrics.Sample slices heapAllocBytes
// reads into — the slice escapes into metrics.Read, and pooling it keeps
// even the *enabled* emission path allocation-free in steady state.
var samplePool = sync.Pool{
	New: func() any {
		s := make([]metrics.Sample, 1)
		s[0].Name = heapSample
		return &s
	},
}

// heapAllocBytes reads the cumulative heap allocation counter; 0 when the
// runtime does not export it.
func heapAllocBytes() uint64 {
	sp := samplePool.Get().(*[]metrics.Sample)
	s := *sp
	metrics.Read(s)
	var v uint64
	if s[0].Value.Kind() == metrics.KindUint64 {
		v = s[0].Value.Uint64()
	}
	samplePool.Put(sp)
	return v
}

// resourceDelta subtracts two ticks into the interval's ResourceDelta,
// folding in the emitter-supplied IO byte counts.
func resourceDelta(start, end Tick, readBytes, writtenBytes int64) ResourceDelta {
	wall := end.wall.Sub(start.wall)
	if wall < 0 {
		wall = 0
	}
	rd := ResourceDelta{ReadBytes: readBytes, WrittenBytes: writtenBytes}
	if end.heap >= start.heap {
		rd.AllocBytes = int64(end.heap - start.heap)
	}
	ceil := time.Duration(runtime.GOMAXPROCS(0)) * wall
	if start.cpu >= 0 && end.cpu >= 0 {
		cpu := end.cpu - start.cpu
		if cpu < 0 {
			cpu = 0
		}
		if cpu > ceil {
			cpu = ceil
		}
		rd.CPU = cpu
	} else {
		rd.CPU = ceil
		rd.CPUEstimated = true
	}
	return rd
}

// PaperBucketNames lists the paper's four-way phase grouping in its display
// order: map, sort, shuffle, reduce.
var PaperBucketNames = [4]string{"map", "sort", "shuffle", "reduce"}

// PaperBucket maps a phase onto the paper's four-way breakdown — the
// grouping both the timeline's PaperSplit and the Collector's live energy
// series aggregate under:
//
//	map     ← read + map
//	sort    ← sort + spill + spill-write
//	shuffle ← merge-fetch + schedule + spill-read
//	reduce  ← reduce + write
//
// Unknown phases report ok=false.
func PaperBucket(p Phase) (string, bool) {
	switch p {
	case PhaseRead, PhaseMap:
		return "map", true
	case PhaseSort, PhaseSpill, PhaseSpillWrite:
		return "sort", true
	case PhaseMergeFetch, PhaseSchedule, PhaseSpillRead:
		return "shuffle", true
	case PhaseReduce, PhaseWrite:
		return "reduce", true
	}
	return "", false
}

// PaperBucketOf is PaperBucket over a phase wire name.
func PaperBucketOf(name string) (string, bool) {
	p, ok := ParsePhase(name)
	if !ok {
		return "", false
	}
	return PaperBucket(p)
}
