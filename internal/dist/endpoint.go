package dist

// endpoint.go is the data plane. Each worker serves the segments it stores —
// its map output to reducers, a finished reduce's output to the master — in
// fixed binary frames over one raw TCP listener, and reducers and the master
// pull them through a frameClient. Control messages stay on net/rpc: nothing
// here reflects over a payload or copies it into a gob message.
//
// A request is 20 bytes and a reply a 6-byte header and one wire-form
// segment (mapreduce's binary segment format), little-endian:
//
//	request  u64 epoch | i32 map seq | i32 partition | i32 frame
//	reply    u8 ok | u8 more | u32 length | length bytes
//
// ok = 0, with nothing after the header, means the worker cannot serve the
// request — it never ran the task, pruned it, or its spill file failed
// validation — and the connection stays usable. more = 1 says the partition
// has further frames (disk-backed output); the puller asks for frame+1.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"heterohadoop/internal/mapreduce"
)

const (
	requestSize     = 20
	replyHeaderSize = 6
	// maxFrameLen bounds the length one reply may claim, so a corrupt or
	// hostile peer cannot make a puller allocate more than this per frame.
	maxFrameLen = 1 << 30
)

// errNotServed is an ok = 0 reply.
var errNotServed = errors.New("dist: peer cannot serve the frame")

// reduceKey is the store key a finished reduce's output waits under for the
// master's pull: negative, so it never collides with a map seq.
func reduceKey(partition int) int { return -1 - partition }

// endpoint is a worker's byte server. It tracks the connections it accepted
// so close takes them down too: a closed worker serves nothing, not even to
// a reducer holding a pooled connection.
type endpoint struct {
	ln    net.Listener
	store *shuffleStore

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// serveEndpoint starts serving store on ln.
func serveEndpoint(ln net.Listener, store *shuffleStore) *endpoint {
	e := &endpoint{ln: ln, store: store, conns: make(map[net.Conn]struct{})}
	go e.acceptLoop()
	return e
}

func (e *endpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.conns[c] = struct{}{}
		e.mu.Unlock()
		go e.serve(c)
	}
}

// serve answers one connection's requests in order until it fails or is
// closed.
func (e *endpoint) serve(c net.Conn) {
	defer func() {
		e.mu.Lock()
		delete(e.conns, c)
		e.mu.Unlock()
		c.Close()
	}()
	var req [requestSize]byte
	for {
		if _, err := io.ReadFull(c, req[:]); err != nil {
			return
		}
		seg, blob, more, err := e.store.frame(binary.LittleEndian.Uint64(req[0:]),
			int(int32(binary.LittleEndian.Uint32(req[8:]))),
			int(int32(binary.LittleEndian.Uint32(req[12:]))),
			int(int32(binary.LittleEndian.Uint32(req[16:]))))
		if err := writeReply(c, seg, blob, more, err == nil); err != nil {
			return
		}
	}
}

// close stops accepting and closes every accepted connection.
func (e *endpoint) close() {
	e.ln.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	for c := range e.conns {
		c.Close()
	}
}

// writeReply writes one reply, ok = 0 when !ok. A resident segment goes out
// as its header and then its arena bytes, in one vectored write; a frame
// read from disk (blob, non-nil) goes out as read.
func writeReply(w io.Writer, seg mapreduce.Segment, blob []byte, more, ok bool) error {
	if !ok {
		_, err := w.Write(make([]byte, replyHeaderSize))
		return err
	}
	var head, body []byte
	if blob != nil {
		head, body = make([]byte, replyHeaderSize), blob
	} else {
		body = seg.Payload()
		head = seg.AppendHeader(make([]byte, replyHeaderSize, replyHeaderSize+seg.EncodedSize()-len(body)))
	}
	head[0] = 1
	if more {
		head[1] = 1
	}
	binary.LittleEndian.PutUint32(head[2:], uint32(len(head)-replyHeaderSize+len(body)))
	bufs := net.Buffers{head, body}
	_, err := bufs.WriteTo(w)
	return err
}

// readReply parses one reply: the frame, validated as a wire-form segment,
// in one exactly sized buffer that the returned segment aliases, and
// whether more frames follow. A reply claiming more than limit bytes, a
// short frame, or a frame whose segment header disagrees with its length is
// an error; an ok = 0 reply is errNotServed.
func readReply(r io.Reader, limit int) (seg mapreduce.Segment, blob []byte, more bool, err error) {
	var head [replyHeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return seg, nil, false, err
	}
	switch {
	case head[0] == 0:
		return seg, nil, false, errNotServed
	case head[0] != 1 || head[1] > 1:
		return seg, nil, false, fmt.Errorf("dist: malformed reply header %x", head)
	}
	n := binary.LittleEndian.Uint32(head[2:])
	if uint64(n) > uint64(limit) {
		return seg, nil, false, fmt.Errorf("dist: reply frame of %d bytes exceeds the %d-byte limit", n, limit)
	}
	blob = make([]byte, n)
	if _, err := io.ReadFull(r, blob); err != nil {
		return seg, nil, false, fmt.Errorf("dist: short reply frame: %w", err)
	}
	if seg, err = mapreduce.DecodeSegment(blob); err != nil {
		return seg, nil, false, err
	}
	return seg, blob, head[1] == 1, nil
}

// frameClient pulls frames from byte endpoints over raw connections it keeps
// idle per address between pulls — as many as pulls ran concurrently. A
// connection whose exchange fails is closed along with the address's idle
// ones: an endpoint only drops connections when its worker closes, so they
// would fail the same way.
type frameClient struct {
	mu     sync.Mutex
	idle   map[string][]net.Conn
	closed bool
}

func newFrameClient() *frameClient {
	return &frameClient{idle: make(map[string][]net.Conn)}
}

// pull fetches frame `frame` of the output stored under (epoch, key) for
// partition part at addr. blob is the segment's wire form, which seg
// aliases.
func (fc *frameClient) pull(addr string, epoch uint64, key, part, frame int) (seg mapreduce.Segment, blob []byte, more bool, err error) {
	c, err := fc.conn(addr)
	if err != nil {
		return seg, nil, false, err
	}
	var req [requestSize]byte
	binary.LittleEndian.PutUint64(req[0:], epoch)
	binary.LittleEndian.PutUint32(req[8:], uint32(int32(key)))
	binary.LittleEndian.PutUint32(req[12:], uint32(int32(part)))
	binary.LittleEndian.PutUint32(req[16:], uint32(int32(frame)))
	if _, err = c.Write(req[:]); err == nil {
		seg, blob, more, err = readReply(c, maxFrameLen)
	}
	if err != nil && !errors.Is(err, errNotServed) {
		c.Close()
		fc.drop(addr)
		return seg, nil, false, err
	}
	fc.put(addr, c)
	return seg, blob, more, err
}

// conn takes an idle connection to addr, or dials one.
func (fc *frameClient) conn(addr string) (net.Conn, error) {
	fc.mu.Lock()
	if cs := fc.idle[addr]; len(cs) > 0 {
		c := cs[len(cs)-1]
		fc.idle[addr] = cs[:len(cs)-1]
		fc.mu.Unlock()
		return c, nil
	}
	fc.mu.Unlock()
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// put returns a connection to the idle set; after close it is closed.
func (fc *frameClient) put(addr string, c net.Conn) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.closed {
		c.Close()
		return
	}
	fc.idle[addr] = append(fc.idle[addr], c)
}

// drop closes addr's idle connections.
func (fc *frameClient) drop(addr string) {
	fc.mu.Lock()
	cs := fc.idle[addr]
	delete(fc.idle, addr)
	fc.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}

// close closes every idle connection; pulls in flight close theirs when
// they finish.
func (fc *frameClient) close() {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.closed = true
	for _, cs := range fc.idle {
		for _, c := range cs {
			c.Close()
		}
	}
	fc.idle = nil
}
