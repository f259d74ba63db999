package obs

import "time"

// phase.go defines the typed task-phase event layer: the per-task,
// per-phase intervals the engine hot path and the distributed runtime emit
// so a trace can be replayed into the paper's per-phase execution-time
// breakdowns (map/shuffle/sort/reduce) and a job's critical path.
//
// Phase events are deliberately not spans: a span costs the observer id
// bookkeeping on both ends, while a phase event is a single value-typed
// delivery carrying its own start time and duration. Emitters measure the
// interval themselves and hand over one PhaseEvent; with no observer
// installed the whole path — including the clock reads — is skipped, which
// is what keeps the engine's record path allocation-free (see
// mapreduce.phaseClock and BenchmarkNoopObserver).

// TaskKind classifies the task a phase interval belongs to.
type TaskKind uint8

const (
	// KindJob marks job-level phases not attributable to one task. No
	// runtime emits one today; it is the zero TaskRef's kind and the
	// fallback for unknown kind names.
	KindJob TaskKind = iota
	// KindMap marks map-task phases.
	KindMap
	// KindReduce marks reduce-task phases.
	KindReduce
)

// String returns the wire name of the kind ("job", "map", "reduce").
func (k TaskKind) String() string {
	switch k {
	case KindMap:
		return "map"
	case KindReduce:
		return "reduce"
	default:
		return "job"
	}
}

// ParseTaskKind is the inverse of TaskKind.String; unknown names parse as
// KindJob with ok=false.
func ParseTaskKind(s string) (TaskKind, bool) {
	switch s {
	case "job":
		return KindJob, true
	case "map":
		return KindMap, true
	case "reduce":
		return KindReduce, true
	}
	return KindJob, false
}

// Phase is one slice of a task's lifecycle, the taxonomy the paper's
// per-phase breakdowns are drawn in. A task may emit the same phase several
// times (one sort/spill pair per spill, one merge-fetch per merge pass);
// consumers sum the intervals.
type Phase uint8

const (
	// PhaseRead is a map task's read of its split window (the split plus
	// the tail of the line straddling its end).
	PhaseRead Phase = iota
	// PhaseMap is mapper execution over the split's records.
	PhaseMap
	// PhaseSort is the map-side sort of one spill's buffered records.
	PhaseSort
	// PhaseSpill is combiner + partitioning + spill layout of one buffer.
	PhaseSpill
	// PhaseMergeFetch covers merge work and shuffle transport: map-side
	// spill merges, the reduce-side segment fetch wait, and the reduce-side
	// k-way merge.
	PhaseMergeFetch
	// PhaseReduce is reducer execution over the merged record stream.
	PhaseReduce
	// PhaseWrite is output materialization (segment encode, HDFS write).
	PhaseWrite
	// PhaseSchedule is the distributed runtime's dispatch latency: how long
	// a task sat ready before a worker was assigned to it.
	PhaseSchedule
	// PhaseSpillWrite is time spent writing spill segment files to disk:
	// map-side spills that overflow the spill-memory budget, collector
	// pressure spills, and the worker's served shuffle files.
	PhaseSpillWrite
	// PhaseSpillRead is time spent reading spill segment files back from
	// disk ahead of an external merge (cursor opening, frame loads).
	PhaseSpillRead

	numPhases
)

// phaseNames index by Phase; keep in sync with the constants.
var phaseNames = [numPhases]string{
	"read", "map", "sort", "spill", "merge-fetch", "reduce", "write", "schedule",
	"spill-write", "spill-read",
}

// String returns the wire name of the phase (e.g. "merge-fetch").
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// ParsePhase is the inverse of Phase.String; unknown names report ok=false.
func ParsePhase(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// TaskRef identifies the task attempt a phase interval belongs to. Worker
// and Epoch attribute the attempt in a distributed run — two attempts of
// the same task (speculation, reassignment) differ in Worker, two jobs in
// Epoch — and stay zero for in-process engine runs.
type TaskRef struct {
	// Job is the job name (Config.Name / JobDescriptor.Workload).
	Job string
	// Kind is the task kind; Index is the task's slot (split index for
	// maps, partition for reduces). Job-level phases use KindJob, index 0.
	Kind  TaskKind
	Index int
	// Worker is the executing worker's ID ("" in-process).
	Worker string
	// Epoch is the master's job generation (0 in-process).
	Epoch uint64
	// Class is the declared core class of the executing node ("big",
	// "little", or a custom profile name; "" when undeclared). Workers
	// stamp it on their events so traces are self-describing for energy
	// attribution.
	Class string
}

// PhaseEvent is one completed phase interval of one task attempt.
type PhaseEvent struct {
	Task     TaskRef
	Phase    Phase
	Start    time.Time
	Duration time.Duration
	// Res is the resource delta sampled over the interval; zero when the
	// emitter constructed the event by hand (e.g. the master's schedule
	// events, which consume no worker resources).
	Res ResourceDelta
}

// PhaseObserver is the optional Observer extension for typed phase events.
// Observers that do not implement it simply never see phases (they are
// high-frequency, typed, and meaningless without the schema); Collector,
// TraceWriter and Tee all implement it.
type PhaseObserver interface {
	// TaskPhase records one completed phase interval. Implementations must
	// be safe for concurrent use.
	TaskPhase(ev PhaseEvent)
}

// EmitPhase delivers ev to o when it implements PhaseObserver and drops it
// otherwise. Hot paths guard the clock reads and the call itself behind
// o.Enabled(); EmitPhase adds no allocation of its own.
func EmitPhase(o Observer, ev PhaseEvent) {
	if po, ok := o.(PhaseObserver); ok {
		po.TaskPhase(ev)
	}
}

// PhaseClock emits phase intervals for one task attempt. The zero value is
// inert and free — Start returns the zero Tick without reading any clock
// (wall, CPU or heap) and Emit returns before constructing anything — which
// is what keeps uninstrumented hot paths allocation-free. Construct with
// NewPhaseClock.
type PhaseClock struct {
	o   Observer
	ref TaskRef
}

// NewPhaseClock returns a clock bound to the observer and task identity, or
// the inert zero clock when the observer is nil or disabled.
func NewPhaseClock(o Observer, ref TaskRef) PhaseClock {
	if o == nil || !o.Enabled() {
		return PhaseClock{}
	}
	return PhaseClock{o: o, ref: ref}
}

// Start samples the phase start — wall time plus the CPU and heap readings
// the matching Emit subtracts into a ResourceDelta — or returns the zero
// Tick (without touching any clock) on the inert zero clock.
func (pc PhaseClock) Start() Tick {
	if pc.o == nil {
		return Tick{}
	}
	return newTick()
}

// Emit records one completed phase interval beginning at start; a no-op on
// the inert zero clock. Phases that move bytes use EmitIO instead.
func (pc PhaseClock) Emit(p Phase, start Tick) {
	pc.EmitIO(p, start, 0, 0)
}

// EmitIO records one completed phase interval beginning at start, crediting
// the phase with the given IO byte counts (threaded from the emitter's own
// spill/segment counters); a no-op on the inert zero clock.
func (pc PhaseClock) EmitIO(p Phase, start Tick, readBytes, writtenBytes int64) {
	if pc.o == nil {
		return
	}
	end := newTick()
	EmitPhase(pc.o, PhaseEvent{
		Task:     pc.ref,
		Phase:    p,
		Start:    start.wall,
		Duration: end.wall.Sub(start.wall),
		Res:      resourceDelta(start, end, readBytes, writtenBytes),
	})
}

// phaseKeys precomputes the Collector aggregation key for every
// (kind, phase) pair — "phase.<kind>.<phase>" — so the lock-scoped update
// does not concatenate strings per event.
var phaseKeys = func() (keys [3][numPhases]string) {
	for k := 0; k < 3; k++ {
		for p := Phase(0); p < numPhases; p++ {
			keys[k][p] = "phase." + TaskKind(k).String() + "." + p.String()
		}
	}
	return
}()

// PhaseKey returns the Collector aggregation key for a (kind, phase) pair:
// "phase.<kind>.<phase>" (e.g. "phase.map.sort"). Out-of-range values fall
// back to the job kind / unknown phase spelling.
func PhaseKey(kind TaskKind, phase Phase) string {
	if kind > KindReduce {
		kind = KindJob
	}
	if phase >= numPhases {
		return "phase." + kind.String() + ".unknown"
	}
	return phaseKeys[kind][phase]
}
