package wire

import "unsafe"

// PooledMsgSize is the size of the object the message pool allocates.
const PooledMsgSize = unsafe.Sizeof(pooledMsg{})

// NewPooledMsg returns a message straight from the pool's New, as a
// GetMsg on an empty pool does.
func NewPooledMsg() *Msg { return msgPool.New().(*Msg) }

// Pooled reports whether m carries the pool's mark.
func Pooled(m *Msg) bool { return m.pooled }
