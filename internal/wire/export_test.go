package wire

import (
	"encoding/binary"
	"unsafe"
)

// PooledMsgSize is the size of the object the message pool allocates.
const PooledMsgSize = unsafe.Sizeof(pooledMsg{})

// NewPooledMsg returns a message straight from the pool's New, marked as
// the pool's, as a GetMsg on an empty pool does.
func NewPooledMsg() *Msg {
	m := msgPool.New().(*Msg)
	m.pooled = true
	return m
}

// Pooled reports whether m carries the pool's mark.
func Pooled(m *Msg) bool { return m.pooled }

// The frame accessors below read an Encoded the way a receiver reads the
// bytes on the wire; only tests need them.

// EncodedSize returns the body length, matching Msg.EncodedSize of the
// encoded message.
func (e *Encoded) EncodedSize() int { return len(e.buf) - 4 }

// Kind returns the encoded message's kind without decoding.
func (e *Encoded) Kind() Kind { return Kind(e.buf[4]) }

// Stamp returns the encoded message's stamp without decoding: the varint
// that follows kind and mode.
func (e *Encoded) Stamp() int64 {
	v, _ := binary.Varint(e.buf[4+prefixSize:])
	return v
}

// DecodeInto decodes the frame body into m with UnmarshalBinary's reuse
// semantics. The decoded fields never alias the frame bytes, so the caller
// may retain m past the frame's Release.
func (e *Encoded) DecodeInto(m *Msg) error { return m.unmarshal(e.buf[4:], nil) }
