package mapreduce

import (
	"strconv"
	"sync"
)

// stringapi.go is the whole string API: func adapters that implement the
// engine's byte-level contracts (Mapper, Reducer, Partitioner) around
// functions written against strings. The engine never sees a string record;
// what the string view costs — a string per input line, key and value, none
// per emitted record — is paid here.

// Emitter receives records from string-API mappers, combiners and reducers.
type Emitter func(key, value string)

// MapperFunc adapts a string map function to Mapper. key is the line's byte
// offset in decimal, value the line.
type MapperFunc func(key, value string, emit Emitter) error

// MapBytes calls f with the line as a string record.
func (f MapperFunc) MapBytes(offset int, line []byte, emit ByteEmitter) error {
	b := newBridge(emit)
	defer b.release()
	return f(strconv.Itoa(offset), string(line), b.emitString)
}

// ReducerFunc adapts a string reduce function to Reducer (and combiner).
type ReducerFunc func(key string, values []string, emit Emitter) error

// ReduceStream calls f with the group's key and values as strings.
func (f ReducerFunc) ReduceStream(key []byte, values *ValueIter, emit ByteEmitter) error {
	b := newBridge(emit)
	defer b.release()
	b.values = b.values[:0]
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		b.values = append(b.values, string(v))
	}
	return f(string(key), b.values, b.emitString)
}

// PartitionerFunc adapts a string partition function to Partitioner.
type PartitionerFunc func(key string, n int) int

// PartitionBytes calls f with the key as a string.
func (f PartitionerFunc) PartitionBytes(key []byte, n int) int { return f(string(key), n) }

// bridge carries one adapter call's string emits to the engine's
// ByteEmitter. Bridges are pooled together with their bound emitString
// closure, staging buffer and values slice, so a call allocates none of
// them and an emit allocates nothing.
type bridge struct {
	emit       ByteEmitter
	emitString Emitter
	buf        []byte   // key then value of the record being emitted
	values     []string // ReducerFunc's group values, reused across groups
}

var bridgePool = sync.Pool{New: func() interface{} {
	b := new(bridge)
	b.emitString = func(k, v string) {
		b.buf = append(append(b.buf[:0], k...), v...)
		b.emit(b.buf[:len(k):len(k)], b.buf[len(k):])
	}
	return b
}}

func newBridge(emit ByteEmitter) *bridge {
	b := bridgePool.Get().(*bridge)
	b.emit = emit
	return b
}

func (b *bridge) release() {
	b.emit = nil
	bridgePool.Put(b)
}
