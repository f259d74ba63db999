package energy

import (
	"sync"
	"time"

	"heterohadoop/internal/obs"
)

// Classify wraps an observer so every phase event it sees carries the
// node's core class — the stamp that makes traces self-describing for
// energy attribution (a mixed-class trace can be split without out-of-band
// knowledge of which worker ran where). Events that already carry a class
// keep it. Nil or disabled observers are returned unchanged.
func Classify(o obs.Observer, class string) obs.Observer {
	if o == nil || !o.Enabled() || class == "" {
		return o
	}
	return &classifier{Observer: o, class: class}
}

// classifier forwards everything and stamps Task.Class on phase events.
type classifier struct {
	obs.Observer
	class string
}

// TaskPhase stamps the class and forwards to the underlying observer (which
// drops the event if it does not implement PhaseObserver, same as without
// the wrapper).
func (c *classifier) TaskPhase(ev obs.PhaseEvent) {
	if ev.Task.Class == "" {
		ev.Task.Class = c.class
	}
	obs.EmitPhase(c.Observer, ev)
}

// Meter is a standalone phase observer that integrates a Profile over every
// phase event it sees — a per-run joule counter. Safe for concurrent
// emission.
type Meter struct {
	profile *Profile

	mu         sync.Mutex
	joules     float64
	start, end time.Time
}

// NewMeter returns a meter estimating with the given profile.
func NewMeter(p *Profile) *Meter { return &Meter{profile: p} }

// Enabled always reports true: a meter wants every phase event.
func (m *Meter) Enabled() bool { return true }

// SpanStart, SpanEnd, Count, Gauge and Progress are no-ops: the meter only
// consumes phase events.
func (m *Meter) SpanStart(string, []obs.Attr) obs.SpanID { return 0 }
func (m *Meter) SpanEnd(obs.SpanID)                      {}
func (m *Meter) Count(string, int64)                     {}
func (m *Meter) Gauge(string, float64)                   {}
func (m *Meter) Progress(string, int, int)               {}

// TaskPhase folds one phase interval into the running joule total and the
// wall-clock envelope.
func (m *Meter) TaskPhase(ev obs.PhaseEvent) {
	j := m.profile.PhaseJoules(ev)
	end := ev.Start.Add(ev.Duration)
	m.mu.Lock()
	m.joules += j
	if m.start.IsZero() || ev.Start.Before(m.start) {
		m.start = ev.Start
	}
	if end.After(m.end) {
		m.end = end
	}
	m.mu.Unlock()
}

// Joules returns the accumulated energy estimate.
func (m *Meter) Joules() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.joules
}

// Reset zeroes the meter for the next run.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.joules, m.start, m.end = 0, time.Time{}, time.Time{}
	m.mu.Unlock()
}
