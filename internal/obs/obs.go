// Package obs is the observability spine of the runtime: a small Observer
// contract (spans, monotonic counters, gauges, progress events) that the
// simulator, the artefact generators, the engine and the distributed
// master/worker all emit into, plus the context plumbing that carries an
// Observer through the ctx-first run APIs.
//
// The paper this repository reproduces is, at heart, a measurement study —
// per-phase execution time and power traces sampled on live clusters — and
// obs gives the reproduction the same instrumentation spine: every layer
// that does work can report what it did, per phase, without the layers
// knowing where the telemetry goes.
//
// Two production observers ship with the package: Collector aggregates
// in memory (per-span duration summaries, counters, gauges, progress),
// and TraceWriter streams events as JSON Lines for offline analysis.
// Tee fans one event stream out to several observers.
//
// The default is Nop, and the no-op fast path is allocation-free: callers
// on hot paths guard attribute construction behind Enabled(), so a run
// without an observer pays one interface call and nothing else. The golden
// artefacts and the evaluation benchmarks run with Nop and are unaffected.
package obs

import (
	"context"
	"strconv"
)

// Attr is one key/value span attribute. Values are strings; use the Str,
// Int and Float constructors to format other types consistently.
type Attr struct {
	Key   string
	Value string
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// SpanID identifies one span issued by an Observer; ids are only meaningful
// to the Observer that issued them.
type SpanID uint64

// Observer receives runtime telemetry. Implementations must be safe for
// concurrent use: the engine's task slots and the distributed runtime emit
// from many goroutines at once.
//
// Enabled is the fast-path gate: when it reports false, callers skip
// attribute construction entirely, which is what keeps the no-op path
// allocation-free. An Observer that wants any events must return true.
type Observer interface {
	// Enabled reports whether the observer wants events at all.
	Enabled() bool
	// SpanStart opens a named span and returns its id.
	SpanStart(name string, attrs []Attr) SpanID
	// SpanEnd closes a span previously opened by SpanStart.
	SpanEnd(id SpanID)
	// Count adds delta to a monotonic counter.
	Count(name string, delta int64)
	// Gauge records the current value of a named quantity.
	Gauge(name string, value float64)
	// Progress reports done-out-of-total completion for a labelled unit of
	// work.
	Progress(label string, done, total int)
}

// nop is the do-nothing Observer behind Nop.
type nop struct{}

func (nop) Enabled() bool                   { return false }
func (nop) SpanStart(string, []Attr) SpanID { return 0 }
func (nop) SpanEnd(SpanID)                  {}
func (nop) Count(string, int64)             {}
func (nop) Gauge(string, float64)           {}
func (nop) Progress(string, int, int)       {}

// Nop is the observer used when none is configured: it drops everything
// and its Enabled() short-circuits attribute construction at call sites.
var Nop Observer = nop{}

// Span is a lightweight handle for an open span. The zero value is inert:
// ending it does nothing, so callers can declare one unconditionally and
// only populate it when their observer is enabled.
type Span struct {
	o  Observer
	id SpanID
}

// Start opens a span on o. With a nil or disabled observer it returns the
// inert zero Span — but note the attrs slice has already been built by
// then; hot paths should guard the whole call behind o.Enabled().
func Start(o Observer, name string, attrs ...Attr) Span {
	if o == nil || !o.Enabled() {
		return Span{}
	}
	return Span{o: o, id: o.SpanStart(name, attrs)}
}

// End closes the span; safe on the zero value.
func (s Span) End() {
	if s.o != nil {
		s.o.SpanEnd(s.id)
	}
}

// ctxKey is the context key type for the carried Observer.
type ctxKey struct{}

// NewContext returns a context carrying the observer; a nil observer
// leaves the context unchanged.
func NewContext(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// FromContext extracts the carried Observer, or Nop when none was set.
// It never returns nil, so callers can emit unconditionally.
func FromContext(ctx context.Context) Observer {
	if ctx == nil {
		return Nop
	}
	if o, ok := ctx.Value(ctxKey{}).(Observer); ok && o != nil {
		return o
	}
	return Nop
}
