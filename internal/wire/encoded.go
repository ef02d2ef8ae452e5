package wire

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Encoded is the TCP writer's frame buffer: the length-prefixed bytes
// WriteFrame would produce for one Msg, in a pooled buffer. Routing is not
// encoded (each receiver learns Src and Dst from its link). An Encoded has
// one owner at a time — the Send that encoded it, then the peer's send
// queue, then a resumable link's replay buffer — and the last hands it to
// Release. Several holders of one frame share the Msg instead (Share).
type Encoded struct {
	buf []byte // length prefix + body
}

var encodedPool = sync.Pool{New: func() any {
	return &Encoded{buf: make([]byte, 0, 4+encodedHeaderSize+512)}
}}

// liveFrames counts Encoded frames checked out of the pool and not yet
// released. It exists so tests can pin that every path that drops a frame
// (a queue dropped for a gone peer, say) releases it: a forgotten one
// leaves the counter permanently elevated, which a before/after
// comparison catches.
var liveFrames atomic.Int64

// LiveFrames returns the number of Encoded frames not yet released (test
// instrumentation; see liveFrames).
func LiveFrames() int64 { return liveFrames.Load() }

// EncodeFrame marshals m into a pooled frame, which the caller owns until
// it hands it to Release.
func EncodeFrame(m *Msg) (*Encoded, error) {
	e := encodedPool.Get().(*Encoded)
	buf := append(e.buf[:0], 0, 0, 0, 0) // length prefix placeholder
	buf, err := m.AppendBinary(buf)
	if err != nil {
		e.buf = buf[:0]
		encodedPool.Put(e)
		return nil, err
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	e.buf = buf
	liveFrames.Add(1)
	return e, nil
}

// Release recycles the frame's buffer. Using e afterwards is a
// use-after-free.
func (e *Encoded) Release() {
	liveFrames.Add(-1)
	encodedPool.Put(e)
}

// Frame returns the full wire frame (length prefix + body), ready for a
// single Write.
func (e *Encoded) Frame() []byte { return e.buf }

// Len returns the frame length in bytes, including the 4-byte prefix —
// the exact on-wire cost of shipping this message once.
func (e *Encoded) Len() int { return len(e.buf) }

// IntsSource supplies the Ints of a carving decode (ReadFrameCarved):
// Take(n) returns n int64s no live slice shares, with
// cap == len.
type IntsSource interface {
	Take(n int) []int64
}

// IntsChunk is where message Ints are carved from. Ints are shared and
// immutable from the moment they are sent or delivered (DESIGN.md §15), so
// a chunk is never reused: every slice cut from it is capacity-clipped,
// nothing is freed or reset, and a chunk goes when the last Ints in it does.
// A live Ints therefore pins at most one chunk. The zero value is ready; a
// chunk is not safe for concurrent use.
type IntsChunk []int64

// intsChunkLen is a chunk's length, 1 KB (an allocator size class). A
// request above a quarter of it gets a slice of its own.
const intsChunkLen = 128

// Take implements IntsSource.
func (c *IntsChunk) Take(n int) []int64 {
	if n > intsChunkLen/4 {
		return make([]int64, n)
	}
	if cap(*c)-len(*c) < n {
		*c = make(IntsChunk, 0, intsChunkLen)
	}
	*c = (*c)[:len(*c)+n]
	return (*c)[len(*c)-n : len(*c) : len(*c)]
}

// Carve returns a copy of vals carved from c.
func (c *IntsChunk) Carve(vals ...int64) []int64 {
	s := c.Take(len(vals))
	copy(s, vals)
	return s
}

// msgPool is the free-list messages circulate through. The lookahead
// runtime takes every hot-path outgoing message from it, and EC every
// message it sends; Send gives the message away (transport.Endpoint.Send);
// the receiving transport delivers that struct, or a frame decoded into
// another pooled one (the TCP read loop, whose Send puts the sent one back
// itself); and the receiver's Recycle puts it back once consumed. A pooled
// message
// carries a small payload inline: the pool allocates a pooledMsg and
// starts its Payload at small, so a payload of up to smallPayload bytes —
// in the tank game, every BSYNC DATA payload — lives in the struct's own
// allocation, on send and on decode alike. A larger one moves to the heap,
// and a recycled Msg keeps that capacity. A Msg taken and never put back —
// retained by its receiver, received by a protocol that does not recycle —
// is ordinary garbage, and the next Get allocates.
var msgPool = sync.Pool{New: func() any {
	p := new(pooledMsg)
	p.Payload = p.small[:0:smallPayload]
	return &p.Msg
}}

// smallPayload is the inline payload's size: it fills the pooled object
// to 128 bytes, one of the allocator's size classes (DESIGN.md §15).
const smallPayload = 48

// pooledMsg is what the pool allocates. Msg itself stays without the
// buffer, so a Msg literal or value costs only its header, and copying
// one over a pooled struct (*m = t) leaves the inline bytes in place.
type pooledMsg struct {
	Msg
	small [smallPayload]byte
}

// GetMsg returns a Msg from the free-list (fields zeroed and Ints nil,
// Payload empty with the capacity of its inline buffer or of a previous
// life's larger one), marked as the pool's.
func GetMsg() *Msg {
	m := msgPool.Get().(*Msg)
	m.pooled = true
	return m
}

// GetMsgOf returns a pooled Msg holding t, marked as the pool's whatever
// t's mark and unshared whatever t's count, with t's Payload copied into
// the struct's own buffer.
func GetMsgOf(t Msg) *Msg {
	m := GetMsg()
	t.Payload = append(m.Payload[:0], t.Payload...)
	t.pooled, t.refs = true, 0
	*m = t
	return m
}

// PutMsg returns the caller's reference to m and recycles m once it was
// the last (Share): a message with one owner is recycled at once. Only the
// pool's structs (GetMsg) go back; any other struct is left alone, because
// a Clone or a literal may share its Payload with a snapshot, a vault entry
// or a caller that sends it again. The recycler must own m and its
// Payload: after the last PutMsg the struct and the Payload backing array
// will be scribbled over by a future decode. Ints are never pooled — they
// are shared, immutable, and often carved — so PutMsg detaches them, and a
// caller may keep m.Ints.
func PutMsg(m *Msg) {
	if m == nil || !m.pooled {
		return
	}
	if atomic.LoadInt32(&m.refs) > 0 && atomic.AddInt32(&m.refs, -1) > 0 {
		return // another holder still reads it
	}
	*m = Msg{Payload: m.Payload[:0], pooled: true}
	msgPool.Put(m)
}

// Share turns the caller's one reference to m into k, one for each holder
// the same message goes to (DESIGN.md §15): every Send of it gives one
// away and every PutMsg returns one, and m is recycled at the last. A
// shared message is immutable, and no transport writes its routing: the
// sharer sets Src to itself and Dst to -1 before the first Send. Only a
// holder may Share m again, or read it: a sender that compares against m
// after sending it keeps a reference of its own until it is done.
func Share(m *Msg, k int) {
	if atomic.LoadInt32(&m.refs) == 0 { // one owner: the caller
		atomic.StoreInt32(&m.refs, int32(k))
	} else {
		atomic.AddInt32(&m.refs, int32(k-1))
	}
}

// Shared reports whether m has been shared (Share) and still has a holder.
func Shared(m *Msg) bool { return atomic.LoadInt32(&m.refs) > 0 }

// LastRef reports whether a PutMsg now recycles m: it is the pool's and
// the caller's reference is its last. A wrapper that acts on a recycled
// message (a poisoning endpoint) acts only then.
func LastRef(m *Msg) bool { return m.pooled && atomic.LoadInt32(&m.refs) <= 1 }

// encodeCalls counts AppendBinary invocations — one per message encode,
// however reached (MarshalBinary, WriteFrame, EncodeFrame). It exists so
// tests can count what a send path encodes (a shared message delivered by
// mem or sim is encoded nowhere, over TCP once per link); a single
// uncontended atomic add is noise next to the memmove the encode itself
// performs.
var encodeCalls atomic.Int64

// EncodeCalls returns the number of message encodes performed so far
// (test instrumentation; see encodeCalls).
func EncodeCalls() int64 { return encodeCalls.Load() }
