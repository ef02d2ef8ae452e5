package transport

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/wire"
)

// Default TCP timing parameters, used when TCPConfig leaves them zero.
const (
	// tcpDialTimeout bounds how long a node waits for its peers to come up.
	tcpDialTimeout = 10 * time.Second
	// tcpCloseGrace bounds how long Close waits for peers to finish
	// sending.
	tcpCloseGrace = 2 * time.Second
	// tcpReconnectGrace is how long a broken resumable link keeps queueing
	// sends while the reconnect machinery works, before the peer is
	// declared gone.
	tcpReconnectGrace = 5 * time.Second
	// tcpHeartbeatMisses is the default miss budget: a link idle for more
	// than (misses+1) heartbeat intervals is torn down.
	tcpHeartbeatMisses = 3
	// tcpSendQueueFrames / tcpSendQueueBytes bound a peer's send queue
	// when the config leaves the caps zero.
	tcpSendQueueFrames = 1024
	tcpSendQueueBytes  = 8 << 20
)

// TCPConfig tunes the TCP transport's timing, write batching and link
// resilience. The zero value selects the defaults (10s dial timeout, 2s
// close grace, flush on every send) and the paper's fail-stop links: a
// broken link is final.
type TCPConfig struct {
	// DialTimeout bounds how long DialTCP waits for every peer to come
	// up; all nodes must start within this window of each other.
	DialTimeout time.Duration
	// CloseGrace bounds how long Close lingers, first for the writers to
	// put queued frames on the wire and then for peers to finish sending,
	// before hard-closing connections.
	CloseGrace time.Duration
	// FlushThreshold switches the endpoint to deferred flushing: frames
	// wait in each peer's send queue until the runtime's Flush barrier
	// (end of an exchange round, before blocking in a receive loop) or
	// until at least this many bytes are queued, and then go out
	// coalesced into one syscall. Zero keeps the historical
	// flush-per-Send behavior, which callers without a Flush barrier
	// (request/reply loops) rely on.
	FlushThreshold int
	// Metrics, when non-nil, counts physical frames, wire bytes, and
	// flushes at this endpoint (metrics.Snapshot's FramesSent /
	// WireBytes / Flushes), plus the resilience counters (Reconnects,
	// HeartbeatsMissed, SendQDepthPeak, DrainFlushedBytes).
	Metrics *metrics.Collector

	// --- Resilience ---------------------------------------------------
	//
	// Every link runs the same machinery (see tcp_session.go): an
	// incarnation-stamped handshake, a per-peer bounded send queue drained
	// by a writer goroutine, and a generation-checked read loop. What
	// Reconnect adds is what a link does when its socket breaks.

	// Reconnect makes links resumable. On connection loss the higher-id
	// side of the link redials with jittered backoff while the lower-id
	// side re-accepts; sends queue for ReconnectGrace before the peer is
	// declared gone, written frames are retained until acknowledged and
	// replayed on the next socket, and a later connection bearing an
	// equal or higher incarnation resurrects the link (the rejoin path).
	// Off, a broken link is final at once: the peer is gone unless it
	// announced DONE, and nothing is redialed, retained or acknowledged.
	// Setting HeartbeatInterval, SendQueueFrames or SendQueueBytes
	// implies Reconnect.
	Reconnect bool
	// ReconnectGrace is how long a broken link keeps queueing sends while
	// reconnecting before Send starts returning ErrPeerGone (and
	// PeerGone reports true to the failure detector). Zero selects 5s.
	ReconnectGrace time.Duration
	// BackoffBase/BackoffMax bound the jittered exponential redial
	// schedule (zero: 10ms/500ms); BackoffSeed decorrelates the jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	BackoffSeed uint64
	// HeartbeatInterval enables liveness probing: a link idle for the
	// interval gets a PING, and a link idle past HeartbeatMisses+1
	// intervals is torn down (feeding the reconnect machinery, and
	// ultimately the runtime's suspicion/eviction). Zero disables
	// heartbeats.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the miss budget before teardown (zero: 3).
	HeartbeatMisses int
	// SendQueueFrames/SendQueueBytes cap each peer's send queue (zero:
	// 1024 frames / 8 MiB). A Send to a full queue waits for room:
	// backpressure at the protocols' exchange barriers.
	SendQueueFrames int
	SendQueueBytes  int
	// Incarnation is this process's life number, presented in the
	// handshake; a restarted process presents a higher incarnation so
	// peers close stale sockets in its favor. Zero selects 1.
	Incarnation int64
	// Listener, when non-nil, is the local listener, already bound by the
	// caller, used in place of listening on addrs[id]; peers are still
	// dialed at addrs[peer]. This lets a chaos proxy front every node:
	// addrs carries proxy addresses, and each node listens on its real
	// backend address. A caller that binds 127.0.0.1:0 and passes the
	// listener on learns its address without letting go of the port, which
	// reserving an address and closing it before the dial cannot promise.
	// The endpoint owns it from the call on: Close, or a failed dial,
	// closes it.
	Listener net.Listener
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = tcpDialTimeout
	}
	if c.CloseGrace <= 0 {
		c.CloseGrace = tcpCloseGrace
	}
	if c.HeartbeatInterval > 0 || c.SendQueueFrames > 0 || c.SendQueueBytes > 0 {
		c.Reconnect = true
	}
	if c.ReconnectGrace <= 0 {
		c.ReconnectGrace = tcpReconnectGrace
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = tcpHeartbeatMisses
	}
	if c.SendQueueFrames <= 0 {
		c.SendQueueFrames = tcpSendQueueFrames
	}
	if c.SendQueueBytes <= 0 {
		c.SendQueueBytes = tcpSendQueueBytes
	}
	if c.Incarnation <= 0 {
		c.Incarnation = 1
	}
	return c
}

// TCPEndpoint is a real-sockets implementation of Endpoint: a full mesh of
// TCP connections among n nodes, with length-prefixed wire.Msg frames. It is
// the substrate cmd/sdso-node runs on, matching the paper's description of
// S-DSO as "directly layered onto sockets".
type TCPEndpoint struct {
	id    int
	n     int
	cfg   TCPConfig
	addrs []string // peer listen addresses, for the dialers
	start time.Time
	ln    net.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	queue    mailbox[*wire.Msg]
	closed   bool
	departed bool // Depart was called: the read loops recycle what they read

	// ints is what every read loop of the endpoint carves decoded Ints
	// from: one chunk, not one a loop, so n-1 links fill one chunk.
	ints sharedInts

	// closing and done mirror `closed` for paths that cannot take e.mu:
	// per-peer writer/redial loops observe closing via the atomic and
	// interrupt their sleeps on the channel.
	closing atomic.Bool
	done    chan struct{}

	// setup carries the set-up's outcome to DialTCPConfig: nil once every
	// link has come up (linksUp counts them), or the first failure.
	// Senders never wait (setupEvent).
	setup   chan error
	linksUp atomic.Int32

	// handshaking holds the connections waiting for a hello (under mu), so
	// shutdown can cut one that never sends it instead of waiting out the
	// handshake deadline.
	handshaking map[net.Conn]struct{}

	peers []*tcpPeer // index by peer id; nil at own index; fixed at dial
	links []*tcpPeer // the n-1 entries of peers that are links, in id order
	wg    sync.WaitGroup
}

// sharedInts is a wire.IntsChunk behind a lock, for the read loops that
// carve from it concurrently.
type sharedInts struct {
	mu sync.Mutex
	c  wire.IntsChunk
}

// Take implements wire.IntsSource.
func (s *sharedInts) Take(n int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Take(n)
}

type tcpPeer struct {
	id   int
	mu   sync.Mutex // guards every field below
	cond *sync.Cond // link/queue state changes

	conn     net.Conn
	bw       *bufio.Writer
	departed bool // peer announced DONE (a later hang-up is a legitimate exit)
	linked   bool // a socket was installed once (reported to the set-up)

	gen       int   // connection generation; bumped by every handshake
	inc       int64 // highest incarnation seen from this peer
	gone      bool  // the link is down for good; sends fail with ErrPeerGone
	redialing bool  // a redial loop for this link is running
	draining  bool  // Drain or Close began; new sends are rejected
	q         sendQueue
	flushReq  bool // a Flush barrier covers the queued frames
	inflight  bool // the writer is writing or flushing queued frames
	hbMiss    int
	pingSeq   int64
	lastRecv  atomic.Int64 // UnixNano of the last frame read from this peer

	// Session resumption state (Reconnect only): the link is a reliable
	// FIFO channel across socket generations within one (local, remote)
	// incarnation pair. Data frames are counted on both ends;
	// written-but-unacknowledged frames are retained and replayed after a
	// reconnect from the count the peer advertises in its hello. A fresh
	// incarnation starts a new session with all counters at zero (the old
	// incarnation's frames died with it — the Join path resynchronizes
	// state wholesale instead).
	ackedSeq int64       // data frames the peer has confirmed receiving
	retain   []sendEntry // frames written since, oldest first
	recvSeq  int64       // data frames received from the peer this session
	ackSent  int64       // recvSeq as last advertised to the peer
}

// sendEntry is one queued, fully encoded (length-prefixed) frame, held as
// a pooled wire.Encoded the queue owns: staging passes it in, and every
// path that removes an entry — written (and, on a resumable
// link, acked), dropped with a gone peer's queue, realigned away on
// reconnect, or left over at shutdown — must Release it back to the pool.
// Control frames (PING/PONG) are link-local: they are neither counted nor
// retained by the resumption machinery and die with the socket.
type sendEntry struct {
	enc  *wire.Encoded
	ctrl bool
}

// size is the entry's on-wire length, the unit of the queue byte caps.
func (s sendEntry) size() int { return s.enc.Len() }

// sendQueue is a peer's FIFO of staged frames. A pop advances a head index
// and moves nothing; the array is reused from its start once the queue runs
// dry, and slid down rather than grown when it fills at least half popped.
type sendQueue struct {
	s     []sendEntry // s[head:] is queued, oldest first
	head  int
	bytes int // on-wire bytes queued
}

func (q *sendQueue) len() int { return len(q.s) - q.head }

// entries is the queued frames, oldest first.
func (q *sendQueue) entries() []sendEntry { return q.s[q.head:] }

func (q *sendQueue) push(ent sendEntry) {
	if len(q.s) == cap(q.s) && q.head > 0 && q.head >= len(q.s)/2 {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, ent)
	q.bytes += ent.size()
}

// pop removes and returns the oldest frame; the queue must not be empty.
func (q *sendQueue) pop() sendEntry {
	ent := q.s[q.head]
	q.s[q.head] = sendEntry{}
	q.head++
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	q.bytes -= ent.size()
	return ent
}

// unpop puts ents back at the front, ahead of everything queued.
func (q *sendQueue) unpop(ents ...sendEntry) {
	if len(ents) <= q.head {
		q.head -= len(ents)
		copy(q.s[q.head:], ents)
	} else {
		q.s, q.head = slices.Insert(q.s[q.head:], 0, ents...), 0
	}
	for _, ent := range ents {
		q.bytes += ent.size()
	}
}

var _ Endpoint = (*TCPEndpoint)(nil)

// ListenLoopback binds n listeners on free loopback ports and returns them
// with their addresses, for a mesh on one host: node i's endpoint takes
// lns[i] as its TCPConfig.Listener, so no port is let go between choosing
// it and listening on it. On error it closes what it bound.
func ListenLoopback(n int) (lns []net.Listener, addrs []string, err error) {
	lns, addrs = make([]net.Listener, n), make([]string, n)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				_ = ln.Close()
			}
			return nil, nil, fmt.Errorf("listen: %w", err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	return lns, addrs, nil
}

// DialTCP builds the full mesh for node id among addrs (one listen address
// per node, indexed by node id) using the default TCPConfig. It listens on
// addrs[id], dials every node with a smaller id, accepts connections from
// every node with a larger id, and returns once all n-1 links are up. All
// nodes must be started within the dial timeout of each other.
func DialTCP(id int, addrs []string) (*TCPEndpoint, error) {
	return DialTCPConfig(id, addrs, TCPConfig{})
}

// DialTCPConfig is DialTCP with explicit configuration.
func DialTCPConfig(id int, addrs []string, cfg TCPConfig) (*TCPEndpoint, error) {
	n := len(addrs)
	if id < 0 || id >= n {
		if cfg.Listener != nil {
			_ = cfg.Listener.Close()
		}
		return nil, fmt.Errorf("transport: node id %d out of range for %d addrs", id, n)
	}
	cfg = cfg.withDefaults()
	ln := cfg.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addrs[id]); err != nil {
			return nil, fmt.Errorf("listen %s: %w", addrs[id], err)
		}
	}
	e := &TCPEndpoint{
		id:    id,
		n:     n,
		cfg:   cfg,
		addrs: append([]string(nil), addrs...),
		start: time.Now(),
		ln:    ln,
		done:  make(chan struct{}),
		setup: make(chan error, 1),
		peers: make([]*tcpPeer, n),

		handshaking: make(map[net.Conn]struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	if err := e.startSession(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() int { return e.id }

// N implements Endpoint.
func (e *TCPEndpoint) N() int { return e.n }

// peer resolves the link to peer `to`, or reports why there is none.
func (e *TCPEndpoint) peer(to int) (*tcpPeer, error) {
	if to < 0 || to >= e.n || to == e.id {
		return nil, fmt.Errorf("transport: send to invalid peer %d", to)
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return e.peers[to], nil
}

// Send implements Endpoint. Send encodes m and hands the peer's queue the
// frame, which is all that is queued, written or replayed, so Send is m's
// last reader and gives a pooled m back to the free-list (wire.PutPooled) —
// one reference of a shared m, which the peer never sees: it decodes the
// frame into a struct of its own, routed by the link.
func (e *TCPEndpoint) Send(to int, m *wire.Msg) error {
	defer wire.PutPooled(m)
	p, err := e.peer(to)
	if err != nil {
		return err
	}
	enc, err := wire.EncodeFrame(m)
	if err != nil {
		return err
	}
	return e.enqueue(p, enc)
}

// SendMany exists only for the benchmark's tracing decorator
// (MultiSender); it is the SendMany helper.
func (e *TCPEndpoint) SendMany(dsts []int, m *wire.Msg) error { return SendMany(e, dsts, m) }

// SendEncoded exists only for the benchmark's tracing decorator
// (EncodedSender); it sends a pooled copy of m.
func (e *TCPEndpoint) SendEncoded(to int, _ *wire.Encoded, m *wire.Msg) error {
	return e.Send(to, wire.GetMsgOf(*m))
}

// Flush implements Flusher: peer by peer, it makes every frame queued so
// far due and waits until the writer has written and flushed it, or the
// link is down. The runtime calls it as a barrier at the end of each
// exchange round and before blocking in a receive loop. A broken link
// surfaces as ErrPeerGone on the next Send (and through PeerGone), never
// here.
func (e *TCPEndpoint) Flush() error {
	for _, p := range e.links {
		p.mu.Lock()
		if p.q.len() > 0 && !p.flushReq {
			p.flushReq = true
			p.cond.Broadcast()
		}
		for (p.flushReq || p.inflight) && p.conn != nil && !e.closing.Load() {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
	return nil
}

// Recycle implements Recycler: messages delivered by this endpoint are
// decoded from frames into pool-owned structs (see readConn), so a
// fully consumed message goes back to the free-list.
func (e *TCPEndpoint) Recycle(m *wire.Msg) { wire.PutMsg(m) }

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() (*wire.Msg, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queue.len() == 0 && !e.closed {
		e.cond.Wait()
	}
	if e.queue.len() == 0 {
		return nil, ErrClosed
	}
	return e.queue.pop(), nil
}

// RecvTimeout implements Endpoint with a wall-clock deadline.
func (e *TCPEndpoint) RecvTimeout(d time.Duration) (*wire.Msg, bool, error) {
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer timer.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queue.len() == 0 && !e.closed {
		if !time.Now().Before(deadline) {
			return nil, false, nil
		}
		e.cond.Wait()
	}
	if e.queue.len() == 0 {
		return nil, false, ErrClosed
	}
	return e.queue.pop(), true, nil
}

// TryRecv implements Endpoint without blocking.
func (e *TCPEndpoint) TryRecv() (*wire.Msg, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.queue.len() == 0 {
		if e.closed {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	return e.queue.pop(), true, nil
}

// depart implements Depart; deliver recycles later frames.
func (e *TCPEndpoint) depart() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.departed = true
	for e.queue.len() > 0 {
		e.Recycle(e.queue.pop())
	}
}

// Now implements Endpoint; it reports wall time since the endpoint started.
func (e *TCPEndpoint) Now() time.Duration { return time.Since(e.start) }

// Compute implements Endpoint. The simulator advances its virtual clock by
// d; on real sockets the faithful equivalent is to actually spend the time,
// so modeled per-tick application work paces real-time runs too.
func (e *TCPEndpoint) Compute(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// markClosed sets closed and unblocks Recv; it reports false when the
// endpoint was already closed.
func (e *TCPEndpoint) markClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.closed = true
	e.cond.Broadcast()
	return true
}

// Close implements Endpoint: it tears down every link and unblocks Recv.
//
// Shutdown is lingering: the writers get CloseGrace to put queued frames on
// the wire, then each link's write side is closed (FIN) and the read loops
// keep draining until the peers close their ends or a grace period
// expires. A hard close would send RST, and a peer's kernel may then
// discard this node's final messages sitting unread in its receive buffer —
// losing, for example, the DONE that tells the peer this process finished.
func (e *TCPEndpoint) Close() error {
	if !e.markClosed() {
		return nil
	}
	e.quiesce()
	e.shutdown(false)
	return nil
}

// Drain gracefully quiesces the endpoint ahead of Close: new sends are
// rejected with ErrClosed, every queued frame is given CloseGrace to reach
// the wire, and each link's write side is then half-closed (FIN) so peers
// see a clean end-of-stream instead of a connection cut mid-write. It
// returns the number of payload bytes that were still pending when Drain
// began and made it out (also recorded in the DrainFlushedBytes metric).
// The read side stays open — late inbound frames still deliver — until
// Close.
//
// cmd/sdso-node wires Drain to SIGINT/SIGTERM.
func (e *TCPEndpoint) Drain() (int, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	queued, left := e.quiesce()
	for _, p := range e.links {
		p.mu.Lock()
		if tc, ok := p.conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		p.mu.Unlock()
	}
	flushed := queued - left
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.Add(metrics.DrainFlushedBytes, flushed)
	}
	return flushed, nil
}

// Abort tears the endpoint down instantly: no queue drain, no flush, no
// FIN handshake — pending frames are discarded and every socket is cut
// with an RST where the platform honors SO_LINGER(0). It is the in-process
// stand-in for SIGKILL, letting crash tests over real sockets model a
// process that died mid-write.
func (e *TCPEndpoint) Abort() {
	if e.markClosed() {
		e.shutdown(true)
	}
}

// PeerGone implements LivenessReporter: it reports whether the transport
// has positive evidence that peer's process is unreachable — a broken link
// that will not come back: at once without Reconnect, after the reconnect
// grace with it. A peer that announced DONE departed legitimately and is
// never reported gone. The runtime uses this to distinguish a dead socket
// (evict now) from a merely slow peer (spend the full retransmit budget).
func (e *TCPEndpoint) PeerGone(peer int) bool {
	if peer < 0 || peer >= e.n || peer == e.id {
		return false
	}
	p := e.peers[peer]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gone && !p.departed
}
