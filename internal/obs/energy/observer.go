package energy

import "heterohadoop/internal/obs"

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
