package transport

import (
	"testing"

	"sdso/internal/wire"
)

// TCPPair dials a 2-node loopback mesh with the given config.
func TCPPair(t *testing.T, cfg TCPConfig) [2]*TCPEndpoint { return tcpPair(t, cfg) }

// Queued returns the messages waiting in e's mailbox, oldest first.
func Queued(e *TCPEndpoint) []*wire.Msg {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := make([]*wire.Msg, e.queue.n)
	for i := range q {
		q[i] = e.queue.buf[(e.queue.head+i)&(len(e.queue.buf)-1)]
	}
	return q
}

// Received returns how many data frames e has read from peer.
func Received(e *TCPEndpoint, peer int) int64 {
	p := e.peers[peer]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recvSeq
}
