package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
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
	// tcpReconnectGrace is how long a broken resilient link keeps queueing
	// sends while the reconnect machinery works, before the peer is
	// declared gone.
	tcpReconnectGrace = 5 * time.Second
	// tcpHeartbeatMisses is the default miss budget: a link idle for more
	// than (misses+1) heartbeat intervals is torn down.
	tcpHeartbeatMisses = 3
	// tcpSendQueueFrames / tcpSendQueueBytes bound a resilient peer's send
	// queue when the config leaves the caps zero.
	tcpSendQueueFrames = 1024
	tcpSendQueueBytes  = 8 << 20
)

// Adaptive flush controller bounds: the runtime threshold doubles up to
// the cap when sends keep crossing it (frames are coalescing — batch
// harder) and halves down to the floor when the exchange barrier finds the
// buffer mostly empty (the threshold exceeds a round's traffic and only
// adds latency).
const (
	adaptiveFlushMin  = 512
	adaptiveFlushMax  = 64 << 10
	adaptiveFlushInit = 2048
)

// QueuePolicy selects what a resilient endpoint does when a peer's send
// queue is full.
type QueuePolicy int

const (
	// QueueBlock makes Send wait for queue space — natural backpressure at
	// the protocols' exchange barriers.
	QueueBlock QueuePolicy = iota
	// QueueShedOldest drops the oldest sheddable frame (SYNC-class
	// control traffic: SYNC rendezvous markers and PING/PONG probes,
	// which the runtime retransmits or regenerates) to make room, and
	// blocks only when the queue holds nothing sheddable. Data frames are
	// never shed.
	QueueShedOldest
)

// TCPConfig tunes the TCP transport's timing and write batching. The zero
// value selects the defaults (10s dial timeout, 2s close grace, flush on
// every send).
type TCPConfig struct {
	// DialTimeout bounds how long DialTCP waits for every peer to come
	// up; all nodes must start within this window of each other.
	DialTimeout time.Duration
	// CloseGrace bounds how long Close lingers waiting for peers to
	// finish sending before hard-closing connections.
	CloseGrace time.Duration
	// FlushThreshold switches the endpoint to deferred flushing: frames
	// accumulate in each peer's write buffer until the runtime's Flush
	// barrier (end of an exchange round, before blocking in a receive
	// loop) or until at least this many bytes are buffered, coalescing
	// many frames into one syscall. Zero keeps the historical
	// flush-per-Send behavior, which callers without a Flush barrier
	// (request/reply loops) rely on.
	FlushThreshold int
	// AdaptiveFlush drives the flush threshold at runtime instead of
	// pinning it: starting from FlushThreshold (or 2 KiB when zero), the
	// effective threshold doubles (capped at 64 KiB) every time a send
	// crosses it — traffic is heavy enough to coalesce more — and halves
	// (floored at 512 B) whenever the Flush barrier finds every buffer
	// well under it, so light traffic is not held back waiting for a
	// threshold it will never reach. The current value is observable as
	// metrics.Snapshot.FlushThresholdCurrent. Only meaningful with the
	// legacy (non-resilient) mesh: the session layer's writers flush on
	// queue idle instead of by threshold.
	AdaptiveFlush bool
	// Metrics, when non-nil, counts physical frames, wire bytes, and
	// flushes at this endpoint (metrics.Snapshot's FramesSent /
	// WireBytes / Flushes), plus the resilience counters (Reconnects,
	// HeartbeatsMissed, SendQShed, SendQDepthPeak, DrainFlushedBytes).
	Metrics *metrics.Collector

	// --- Resilience (the session layer) -------------------------------
	//
	// Setting any of the fields below switches the endpoint from the
	// legacy fixed mesh (dial once, a broken socket is a permanent
	// ErrPeerGone) to the resilient session layer: a symmetric
	// incarnation-stamped handshake, background reconnect with jittered
	// exponential backoff, per-peer bounded send queues drained by writer
	// goroutines, and optional liveness heartbeats. All zero keeps the
	// legacy behavior byte-for-byte (the bench parity baseline).

	// Reconnect enables the session layer. On connection loss the
	// higher-id side of the link redials with jittered backoff while the
	// lower-id side re-accepts; sends queue for ReconnectGrace before the
	// peer is declared gone, and a later connection bearing an equal or
	// higher incarnation resurrects the link (the rejoin path).
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
	// heartbeats. Implies the session layer.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the miss budget before teardown (zero: 3).
	HeartbeatMisses int
	// SendQueueFrames/SendQueueBytes cap each peer's send queue in the
	// session layer (zero: 1024 frames / 8 MiB). A full queue applies
	// SendQueuePolicy. Setting either implies the session layer.
	SendQueueFrames int
	SendQueueBytes  int
	// SendQueuePolicy picks between blocking (default) and shedding
	// SYNC-class frames when a peer's queue is full.
	SendQueuePolicy QueuePolicy
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

// resilient reports whether any session-layer feature is configured; the
// session layer is all-or-nothing (every node of a mesh must agree).
func (c TCPConfig) resilient() bool {
	return c.Reconnect || c.HeartbeatInterval > 0 ||
		c.SendQueueFrames > 0 || c.SendQueueBytes > 0
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = tcpDialTimeout
	}
	if c.CloseGrace <= 0 {
		c.CloseGrace = tcpCloseGrace
	}
	if c.resilient() {
		c.Reconnect = true
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
	addrs []string // peer listen addresses, for the reconnect dialer
	start time.Time
	ln    net.Listener

	mu     sync.Mutex
	cond   *sync.Cond
	queue  mailbox[*wire.Msg]
	closed bool

	// ints is what every read loop of the endpoint carves decoded Ints
	// from: one chunk, not one a loop, so n-1 links fill one chunk.
	ints sharedInts

	// closing and done mirror `closed` for paths that cannot take e.mu:
	// per-peer writer/redial loops observe closing via the atomic and
	// interrupt their sleeps on the channel.
	closing atomic.Bool
	done    chan struct{}

	// flushThr is the adaptive flush controller's current threshold
	// (TCPConfig.AdaptiveFlush); zero when the controller is off.
	flushThr atomic.Int64

	peers []*tcpPeer // index by peer id; nil at own index
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
	cond *sync.Cond // link/queue state changes (session layer)

	conn     net.Conn
	bw       *bufio.Writer
	dead     bool // peer hung up; subsequent sends are dropped (legacy mesh)
	departed bool // peer announced DONE before hanging up (legitimate exit)

	// Session-layer state (TCPConfig.resilient() only).
	gen       int   // connection generation; bumped by every adopt
	inc       int64 // highest incarnation seen from this peer
	gone      bool  // reconnect grace expired; sends fail with ErrPeerGone
	redialing bool  // a redial loop for this link is running
	draining  bool  // Drain began; new sends are rejected
	q         []sendEntry
	qBytes    int
	inflight  bool // the writer popped a frame and is writing/flushing it
	hbMiss    int
	pingSeq   int64
	lastRecv  atomic.Int64 // UnixNano of the last frame read from this peer

	// Session resumption state: the link is a reliable FIFO channel across
	// socket generations within one (local, remote) incarnation pair. Data
	// frames are counted on both ends; written-but-unacknowledged frames are
	// retained and replayed after a reconnect from the count the peer
	// advertises in its hello. A fresh incarnation starts a new session with
	// all counters at zero (the old incarnation's frames died with it — the
	// Join path resynchronizes state wholesale instead).
	sentSeq     int64       // data frames written to any socket this session
	ackedSeq    int64       // frames the peer has confirmed receiving
	retain      []sendEntry // frames sentSeq covers beyond ackedSeq, oldest first
	retainBytes int
	recvSeq     int64 // data frames received from the peer this session
	ackSent     int64 // recvSeq as last advertised to the peer
}

// sendEntry is one queued, fully encoded (length-prefixed) frame, held as
// a pooled wire.Encoded the queue owns: staging passes the reference in,
// and every path that removes an entry — written-and-acked, shed, dropped
// with a gone peer's queue, realigned away on reconnect, or left over at
// shutdown — must Release it back to the pool. Control frames (PING/PONG,
// hellos) are link-local: they are neither counted nor retained by the
// resumption machinery and die with the socket.
type sendEntry struct {
	enc  *wire.Encoded
	kind wire.Kind
	ctrl bool
}

// size is the entry's on-wire length, the unit of the queue byte caps.
func (s sendEntry) size() int { return s.enc.Len() }

// sheddable reports whether a queued frame may be dropped under
// QueueShedOldest: SYNC rendezvous markers are retransmitted by the
// runtime's failure detector and PING/PONG probes are regenerated every
// interval, so losing one costs latency, never correctness. Everything
// else (data, lock traffic, join/checkpoint frames) blocks instead.
func sheddable(k wire.Kind) bool {
	return k == wire.KindSync || k == wire.KindPing || k == wire.KindPong
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

// DialTCPConfig is DialTCP with explicit timing configuration.
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
		peers: make([]*tcpPeer, n),
	}
	e.cond = sync.NewCond(&e.mu)
	if cfg.AdaptiveFlush {
		thr := cfg.FlushThreshold
		if thr <= 0 {
			thr = adaptiveFlushInit
		}
		e.flushThr.Store(int64(thr))
		if cfg.Metrics != nil {
			cfg.Metrics.NoteFlushThreshold(thr)
		}
	}
	if cfg.resilient() {
		if err := e.startSession(); err != nil {
			e.Close()
			return nil, err
		}
		return e, nil
	}

	errc := make(chan error, 2)
	var setup sync.WaitGroup

	// Accept links from higher-numbered peers. The set-up deadline bounds
	// both the wait for a peer that never starts and the wait for the
	// hello of one that connects and stays silent.
	deadline := time.Now().Add(cfg.DialTimeout)
	if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = dl.SetDeadline(deadline)
	}
	setup.Add(1)
	go func() {
		defer setup.Done()
		for accepted := 0; accepted < n-1-id; accepted++ {
			conn, err := ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("accept: %w", err)
				return
			}
			_ = conn.SetReadDeadline(deadline)
			var hello wire.Msg
			if err := wire.ReadFrame(conn, &hello); err != nil || hello.Kind != wire.KindHello {
				conn.Close()
				errc <- fmt.Errorf("bad handshake from %s: %v", conn.RemoteAddr(), err)
				return
			}
			_ = conn.SetReadDeadline(time.Time{})
			peer := int(hello.Stamp)
			if peer <= id || peer >= n {
				conn.Close()
				errc <- fmt.Errorf("handshake names invalid peer %d", peer)
				return
			}
			e.addPeer(peer, conn)
		}
	}()

	// Dial links to lower-numbered peers.
	setup.Add(1)
	go func() {
		defer setup.Done()
		for peer := 0; peer < id; peer++ {
			conn, err := dialRetry(addrs[peer], cfg.DialTimeout, cfg.BackoffSeed^uint64(id))
			if err != nil {
				errc <- fmt.Errorf("dial peer %d (%s): %w", peer, addrs[peer], err)
				return
			}
			hello := &wire.Msg{Kind: wire.KindHello, Stamp: int64(id)}
			if err := wire.WriteFrame(conn, hello); err != nil {
				conn.Close()
				errc <- fmt.Errorf("handshake to peer %d: %w", peer, err)
				return
			}
			e.addPeer(peer, conn)
		}
	}()

	setup.Wait()
	select {
	case err := <-errc:
		e.Close()
		return nil, err
	default:
	}
	return e, nil
}

// dialRetry dials addr until it answers or the timeout expires, pacing
// attempts with the same jittered exponential backoff the reconnect path
// uses — one retry policy for startup and recovery.
func dialRetry(addr string, timeout time.Duration, seed uint64) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	bo := Backoff{Seed: seed ^ hashString(addr)}
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(bo.Next())
	}
	return nil, lastErr
}

func (e *TCPEndpoint) addPeer(peer int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	p := &tcpPeer{id: peer, conn: conn, bw: bufio.NewWriter(conn)}
	p.cond = sync.NewCond(&p.mu)
	e.mu.Lock()
	e.peers[peer] = p
	e.mu.Unlock()
	e.wg.Add(1)
	go e.readLoop(p)
}

func (e *TCPEndpoint) readLoop(p *tcpPeer) {
	defer e.wg.Done()
	br := bufio.NewReader(p.conn)
	for {
		// Decode into a pooled Msg; the runtime hands it back through
		// Recycle once fully consumed, so steady-state receive paths stop
		// allocating a Msg (plus its slices) per frame.
		m := wire.GetMsg()
		if err := wire.ReadFrameCarved(br, m, &e.ints); err != nil {
			e.Recycle(m)
			if !errors.Is(err, io.EOF) {
				// Anything but a clean end-of-stream — a truncated,
				// oversized, or garbage frame, or a reset — leaves the
				// stream unparseable: close the link so the peer is
				// suspected (ErrPeerGone on the next send) instead of
				// lingering half-alive behind a silently stopped reader.
				p.mu.Lock()
				if !p.dead {
					p.dead = true
					_ = p.conn.Close()
				}
				p.mu.Unlock()
			}
			return // peer closed, sent garbage, or endpoint shutting down
		}
		m.Src, m.Dst = int32(p.id), int32(e.id) // routing is the link's, not the frame's
		if m.Kind == wire.KindDone {
			// The peer announced completion: a subsequent hang-up is a
			// legitimate departure, not a crash (see Send).
			p.mu.Lock()
			p.departed = true
			p.mu.Unlock()
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			e.Recycle(m)
			return
		}
		e.queue.push(m)
		e.cond.Signal()
		e.mu.Unlock()
	}
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() int { return e.id }

// N implements Endpoint.
func (e *TCPEndpoint) N() int { return e.n }

// peer resolves the live link to peer `to`, or reports why there is none.
func (e *TCPEndpoint) peer(to int) (*tcpPeer, error) {
	if to < 0 || to >= e.n || to == e.id {
		return nil, fmt.Errorf("transport: send to invalid peer %d", to)
	}
	e.mu.Lock()
	p := e.peers[to]
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if p == nil {
		return nil, fmt.Errorf("transport: no link to peer %d", to)
	}
	return p, nil
}

// flushThreshold returns the effective deferred-flush threshold: the
// adaptive controller's current value when AdaptiveFlush is on, the
// configured constant otherwise (zero meaning flush-per-send).
func (e *TCPEndpoint) flushThreshold() int {
	if e.cfg.AdaptiveFlush {
		return int(e.flushThr.Load())
	}
	return e.cfg.FlushThreshold
}

// setFlushThreshold clamps and installs a new adaptive threshold,
// exporting it through the FlushThresholdCurrent gauge.
func (e *TCPEndpoint) setFlushThreshold(thr int) {
	if thr < adaptiveFlushMin {
		thr = adaptiveFlushMin
	}
	if thr > adaptiveFlushMax {
		thr = adaptiveFlushMax
	}
	e.flushThr.Store(int64(thr))
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.NoteFlushThreshold(thr)
	}
}

// maybeFlushLocked applies the flush policy after a frame was staged in
// p.bw (p.mu held): flush-per-send when no threshold is configured,
// otherwise only once the buffer crosses the threshold — the runtime's
// Flush barrier picks up the rest. A threshold-triggered flush tells the
// adaptive controller that traffic is dense enough to coalesce: the
// threshold doubles so the next batch folds more frames into one syscall.
func (e *TCPEndpoint) maybeFlushLocked(p *tcpPeer) error {
	thr := e.flushThreshold()
	buffered := p.bw.Buffered()
	if thr > 0 && buffered < thr {
		return nil
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.AddFlush()
	}
	if e.cfg.AdaptiveFlush && thr > 0 && buffered >= thr {
		e.setFlushThreshold(thr * 2)
	}
	return nil
}

// brokenLocked handles a write failure on p (p.mu held): the link is
// declared dead and the error is classified. A peer that announced DONE
// legitimately departed (processes exit once finished), so messages to it
// are silently dropped — the same contract as the in-memory and simulated
// transports. A peer that vanished without DONE is presumed crashed:
// report ErrPeerGone so the runtime's failure detector can observe it.
func (p *tcpPeer) brokenLocked() error {
	if !p.dead {
		p.dead = true
		_ = p.conn.Close()
	}
	if p.departed {
		return nil
	}
	return ErrPeerGone
}

// Send implements Endpoint.
func (e *TCPEndpoint) Send(to int, m *wire.Msg) error {
	enc, err := wire.EncodeFrame(m)
	if err != nil {
		return err
	}
	defer enc.Release()
	return e.SendEncoded(to, enc, m)
}

// SendEncoded implements EncodedSender: the shared frame goes out as it is,
// since no byte of it names a destination. The session layer's queue holds
// a reference of its own, released by whichever path dequeues the frame.
func (e *TCPEndpoint) SendEncoded(to int, enc *wire.Encoded, m *wire.Msg) error {
	p, err := e.peer(to)
	if err != nil {
		return err
	}
	if e.cfg.Reconnect {
		return e.enqueue(p, enc.Retain(), m.Kind)
	}
	return e.writeFrame(p, enc)
}

// writeFrame stages enc in p's write buffer (the legacy, non-reconnecting
// path) and counts it by the encoded frame's own length.
func (e *TCPEndpoint) writeFrame(p *tcpPeer, enc *wire.Encoded) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrClosed
	}
	if p.dead {
		return p.brokenLocked()
	}
	if _, err := p.bw.Write(enc.Frame()); err != nil {
		return p.brokenLocked()
	}
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.AddFrame(enc.Len())
	}
	if err := e.maybeFlushLocked(p); err != nil {
		return p.brokenLocked()
	}
	return nil
}

// SendMany implements MultiSender: one encode shared across all
// destinations, best-effort with joined errors.
func (e *TCPEndpoint) SendMany(dsts []int, m *wire.Msg) error {
	return sendManyEncoded(e, dsts, m)
}

// Flush implements Flusher: it pushes every peer's buffered frames onto
// the wire. The runtime calls it as a barrier at the end of each exchange
// round and before blocking in a receive loop.
func (e *TCPEndpoint) Flush() error {
	if e.cfg.Reconnect {
		// The session layer's per-peer writers flush whenever their queue
		// drains (flush-on-idle), so the barrier has nothing to do — and
		// must not touch the bufio writers the writer goroutines own.
		return nil
	}
	var errs []error
	maxBuffered, flushed := 0, false
	for to := 0; to < e.n; to++ {
		// One link at a time under e.mu, never a snapshot of the table: the
		// barrier runs every tick and must not allocate, and e.mu cannot be
		// held across a socket write (the read loops deliver under it).
		e.mu.Lock()
		p := e.peers[to]
		e.mu.Unlock()
		if p == nil {
			continue
		}
		p.mu.Lock()
		if !p.dead && p.bw.Buffered() > 0 {
			if b := p.bw.Buffered(); b > maxBuffered {
				maxBuffered = b
			}
			if err := p.bw.Flush(); err != nil {
				if err := p.brokenLocked(); err != nil {
					errs = append(errs, fmt.Errorf("flush to %d: %w", to, err))
				}
			} else {
				flushed = true
				if e.cfg.Metrics != nil {
					e.cfg.Metrics.AddFlush()
				}
			}
		}
		p.mu.Unlock()
	}
	// Barrier flushes finding every buffer well under the threshold mean
	// the threshold exceeds a whole round's traffic to any peer: it only
	// delays frames the barrier would have sent anyway. Back it off (once
	// per barrier, on the busiest peer's fill) so light phases return to
	// prompt flushing.
	if thr := e.flushThreshold(); e.cfg.AdaptiveFlush && thr > adaptiveFlushMin &&
		flushed && maxBuffered < thr/2 {
		e.setFlushThreshold(thr / 2)
	}
	return errors.Join(errs...)
}

// Recycle implements Recycler: messages delivered by this endpoint are
// decoded from frames into pool-owned structs (see readLoop), so a fully
// consumed message goes back to the free-list.
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

// Close implements Endpoint: it tears down every link and unblocks Recv.
//
// Shutdown is lingering: each link's write side is closed first (FIN) and
// the read loops keep draining until the peers close their ends or a grace
// period expires. A hard close would send RST, and a peer's kernel may then
// discard this node's final messages sitting unread in its receive buffer —
// losing, for example, the DONE that tells the peer this process finished.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.cond.Broadcast()
	peers := make([]*tcpPeer, len(e.peers))
	copy(peers, e.peers)
	e.mu.Unlock()

	if e.cfg.Reconnect {
		e.closeSession(peers)
		return nil
	}

	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if !p.dead {
			_ = p.bw.Flush() // drain frames deferred past the last barrier
		}
		if tc, ok := p.conn.(*net.TCPConn); ok && !p.dead {
			_ = tc.CloseWrite()
		}
		p.mu.Unlock()
	}
	_ = e.ln.Close()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(e.cfg.CloseGrace):
	}
	for _, p := range peers {
		if p != nil {
			_ = p.conn.Close()
		}
	}
	e.wg.Wait()
	return nil
}

// Drain gracefully quiesces the endpoint ahead of Close: new sends are
// rejected with ErrClosed, every queued and buffered frame is given
// CloseGrace to reach the wire, and each link's write side is then
// half-closed (FIN) so peers see a clean end-of-stream instead of a
// connection cut mid-write. It returns the number of payload bytes that
// were still pending when Drain began and made it out (also recorded in
// the DrainFlushedBytes metric). The read side stays open — late inbound
// frames still deliver — until Close.
//
// cmd/sdso-node wires Drain to SIGINT/SIGTERM.
func (e *TCPEndpoint) Drain() (int, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	peers := make([]*tcpPeer, len(e.peers))
	copy(peers, e.peers)
	e.mu.Unlock()

	pending := 0
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.draining = true
		pending += p.qBytes
		if !e.cfg.Reconnect && !p.dead {
			pending += p.bw.Buffered()
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}

	var errs []error
	flushed := pending
	if e.cfg.Reconnect {
		e.awaitQuiescent(peers, time.Now().Add(e.cfg.CloseGrace))
	}
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if e.cfg.Reconnect {
			flushed -= p.qBytes // still queued: the link never came back
		} else if !p.dead {
			before := p.bw.Buffered()
			if err := p.bw.Flush(); err != nil {
				flushed -= before
				if err := p.brokenLocked(); err != nil {
					errs = append(errs, fmt.Errorf("drain to %d: %w", p.id, err))
				}
			} else if e.cfg.Metrics != nil && before > 0 {
				e.cfg.Metrics.AddFlush()
			}
		}
		if p.conn != nil && !p.dead {
			if tc, ok := p.conn.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
		}
		p.mu.Unlock()
	}
	if flushed < 0 {
		flushed = 0
	}
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.AddDrainFlushedBytes(flushed)
	}
	return flushed, errors.Join(errs...)
}

// Abort tears the endpoint down instantly: no queue drain, no flush, no
// FIN handshake — pending frames are discarded and every socket is cut
// with an RST where the platform honors SO_LINGER(0). It is the in-process
// stand-in for SIGKILL, letting crash tests over real sockets model a
// process that died mid-write.
func (e *TCPEndpoint) Abort() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	peers := make([]*tcpPeer, len(e.peers))
	copy(peers, e.peers)
	e.mu.Unlock()

	e.closing.Store(true)
	close(e.done)
	_ = e.ln.Close()
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			if tc, ok := p.conn.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			_ = p.conn.Close()
		}
		p.dead = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	e.wg.Wait()
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.dropQueueLocked()
		p.dropRetainLocked()
		p.mu.Unlock()
	}
}

// PeerGone implements LivenessReporter: it reports whether the transport
// has positive evidence that peer's process is unreachable — a broken
// socket in the legacy mesh, or a link down past the reconnect grace in
// the session layer. A peer that announced DONE departed legitimately and
// is never reported gone. The runtime uses this to distinguish a dead
// socket (evict now) from a merely slow peer (spend the full retransmit
// budget).
func (e *TCPEndpoint) PeerGone(peer int) bool {
	if peer < 0 || peer >= e.n || peer == e.id {
		return false
	}
	e.mu.Lock()
	p := e.peers[peer]
	e.mu.Unlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.departed {
		return false
	}
	if e.cfg.Reconnect {
		return p.gone
	}
	return p.dead
}
