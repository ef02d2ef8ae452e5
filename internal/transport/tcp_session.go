package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/wire"
)

// This file is the TCP session layer: the link machinery of every
// TCPEndpoint (DESIGN.md §11). There is one of each — one accept loop and
// one handshake, one generation-checked read loop per socket, one per-peer
// queue drained by one writer goroutine, and one Close / Drain / Abort —
// and TCPConfig.Reconnect decides only what a link does once its socket
// breaks.
//
//   - A handshake is a three-int hello, KindHello{Stamp: id, Ints:
//     [incarnation, generation, recvCount]}; anything shorter is refused.
//     An incarnation older than the link has seen is refused, an equal or
//     newer one replaces the installed socket, so a restarted process
//     reclaims its links. Only a resumable link's acceptor replies: its
//     recvCount is the dialer's replay point.
//   - Send stages an encoded frame on the peer's bounded queue and never
//     blocks in a kernel write; a full queue blocks it. The writer takes
//     the queue when it is due (dueLocked), writes it and flushes once it
//     has run dry. Flush returns once every writer it woke has done so,
//     or its link is down.
//   - Without Reconnect a broken link — a read or write error, or a clean
//     hang-up without DONE — is final at once (the paper's fail-stop
//     model): the peer is gone unless it announced DONE, and nothing is
//     redialed, retained or acknowledged.
//   - With Reconnect a link is a reliable FIFO channel within one
//     incarnation pair, so fire-and-forget frames (EC lock releases, DONE)
//     survive connection kills: both ends count data frames, written
//     frames are retained until acked (acks ride PING/PONG and a PONG
//     every sessionAckEvery frames) and replayed from the peer's recvCount
//     once the higher-id side has redialed. A link down past ReconnectGrace
//     makes the peer gone; a later fresh incarnation resurrects it (the
//     Join path). Optional heartbeats tear down a link silent past the miss
//     budget.

// startSession brings up the mesh: per-peer writers, the accept loop,
// the optional heartbeat monitor, and the initial links (dial lower ids,
// lower ids, await accepts from higher ids) within DialTimeout.
func (e *TCPEndpoint) startSession() error {
	for j := range e.peers {
		if j != e.id {
			// The queue is sized with the link, as the write buffer is: a
			// round's frames to one peer fit without growing it mid-game.
			p := &tcpPeer{id: j, q: sendQueue{s: make([]sendEntry, 0, tcpQueueInit)}}
			p.cond = sync.NewCond(&p.mu)
			e.peers[j] = p
			e.links = append(e.links, p)
			e.wg.Add(1)
			go e.writeLoop(p)
		}
	}
	e.wg.Add(2)
	go e.acceptLoop()
	deadline := time.Now().Add(e.cfg.DialTimeout)
	go func() {
		defer e.wg.Done()
		for j := 0; j < e.id; j++ {
			if err := e.dialSession(j, deadline); err != nil {
				e.setupEvent(err)
				return
			}
		}
	}()
	if e.cfg.HeartbeatInterval > 0 {
		e.wg.Add(1)
		go e.heartbeatLoop()
	}

	if len(e.links) == 0 {
		return nil
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case err := <-e.setup:
		return err
	case <-timer.C:
		return fmt.Errorf("transport: node %d: peers did not all connect within %v", e.id, e.cfg.DialTimeout)
	}
}

// tcpQueueInit is a send queue's first capacity: the few frames one round
// sends a peer between two Flush barriers.
const tcpQueueInit = 4

// setupEvent reports the set-up's outcome — nil when every link is up, or
// a failure — to the set-up wait. It never blocks: only the first outcome
// is heard, and once the set-up is over nobody listens.
func (e *TCPEndpoint) setupEvent(err error) {
	select {
	case e.setup <- err:
	default:
	}
}

// acceptLoop serves the listener for the life of the endpoint: restarted
// or reconnecting peers may arrive at any time. Each handshake runs on a
// goroutine of its own, so a connection that stalls mid-handshake cannot
// hold up another peer's.
func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed during shutdown
		}
		e.wg.Add(1)
		go e.handleAccept(conn)
	}
}

// sessionAckEvery is the unsolicited-acknowledgement cadence of a
// resumable link: after this many unacknowledged data frames the receiver
// volunteers a PONG carrying its receive count, bounding how much the
// sender must retain for replay on links too busy for idle-triggered
// heartbeats to ack.
const sessionAckEvery = 32

// hello builds this endpoint's handshake frame for a link at generation gen
// that has received recvd data frames this session.
func (e *TCPEndpoint) hello(gen int, recvd int64) *wire.Msg {
	return &wire.Msg{Kind: wire.KindHello, Stamp: int64(e.id),
		Ints: []int64{e.cfg.Incarnation, int64(gen), recvd}}
}

// readHello reads a handshake frame from conn within DialTimeout and
// unpacks it: the sender's node id, its incarnation, and how many data
// frames it has received on this session (the resume point — retained
// frames beyond it are replayed). Anything but a hello carrying all three
// ints is an error; the handshake refuses it. While it waits, conn is
// listed in e.handshaking, so shutdown can cut a connection that never
// says hello.
func (e *TCPEndpoint) readHello(conn net.Conn, m *wire.Msg) (peer int, inc, recvd int64, err error) {
	e.mu.Lock()
	if e.closing.Load() {
		e.mu.Unlock()
		return 0, 0, 0, ErrClosed
	}
	e.handshaking[conn] = struct{}{}
	e.mu.Unlock()
	_ = conn.SetReadDeadline(time.Now().Add(e.cfg.DialTimeout))
	err = wire.ReadFrame(conn, m)
	_ = conn.SetReadDeadline(time.Time{})
	e.mu.Lock()
	delete(e.handshaking, conn)
	e.mu.Unlock()
	if err == nil && (m.Kind != wire.KindHello || len(m.Ints) < 3) {
		err = errors.New("not a hello with incarnation, generation and receive count")
	}
	if err != nil {
		return 0, 0, 0, err
	}
	return int(m.Stamp), m.Ints[0], m.Ints[2], nil
}

// handleAccept runs the accept side of the handshake: read the peer's
// hello (bounded by a deadline so a garbage or stalled connection cannot
// wedge the endpoint), validate it names a higher-id peer, fence the link,
// reply with our own hello if the link is resumable, and install the
// connection. Without Reconnect a connection that fails this fails the
// set-up, as the mesh has no second chance for a link.
func (e *TCPEndpoint) handleAccept(conn net.Conn) {
	defer e.wg.Done()
	var hello wire.Msg
	peer, inc, remoteRecv, err := e.readHello(conn, &hello)
	if err != nil || peer <= e.id || peer >= e.n {
		_ = conn.Close()
		if !e.cfg.Reconnect {
			e.setupEvent(fmt.Errorf("transport: bad handshake from %s (kind %v, ints %v): %v",
				conn.RemoteAddr(), hello.Kind, hello.Ints, err))
		}
		return
	}
	p := e.peers[peer]

	p.mu.Lock()
	if !e.cfg.Reconnect && p.gen > 0 {
		p.mu.Unlock()
		_ = conn.Close()
		return
	}
	if e.closing.Load() || inc < p.inc {
		// A stale socket racing a restarted process's fresh one (or our own
		// shutdown): answer politely so the dialer can see who it reached,
		// but leave the installed link untouched.
		reply := e.hello(p.gen, p.recvSeq)
		p.mu.Unlock()
		_ = wire.WriteFrame(conn, reply)
		_ = conn.Close()
		return
	}
	gen, recvd := e.fenceLinkLocked(p, inc)
	p.mu.Unlock()

	// The receive count is advertised post-fence: the superseded read loop
	// is generation-fenced out, so the count cannot move between here and
	// the install. Only a resumable link's dialer reads the reply.
	if e.cfg.Reconnect {
		if err := wire.WriteFrame(conn, e.hello(gen, recvd)); err != nil {
			e.abandonHandshake(p, gen, conn)
			return
		}
	}
	e.installConn(p, conn, gen, inc, remoteRecv)
}

// tcpStartDialBase is the first retry delay of a start-up dial: a refused
// dial there means the peer's process has not bound its listener yet,
// which on one host is a matter of microseconds, not of a network fault.
const tcpStartDialBase = time.Millisecond

// dialSession establishes the startup link to lower-id peer j, retrying
// refused dials with jittered backoff until the deadline. Without
// Reconnect a failed handshake fails the set-up at once.
func (e *TCPEndpoint) dialSession(j int, deadline time.Time) error {
	bo := Backoff{Base: tcpStartDialBase, Max: e.cfg.BackoffMax,
		Seed: e.cfg.BackoffSeed ^ uint64(e.id)<<32 ^ uint64(j)}
	for {
		// A failed attempt spawns the redial loop via linkDown; if it wins
		// the race, stop — every handshake fences, so redialing an
		// established link would tear it down just to rebuild it.
		p := e.peers[j]
		p.mu.Lock()
		up := p.conn != nil
		p.mu.Unlock()
		if up {
			return nil
		}
		conn, err := net.DialTimeout("tcp", e.addrs[j], time.Second)
		if err == nil {
			if e.handshakeDial(conn, j) {
				return nil
			}
			if !e.cfg.Reconnect {
				return fmt.Errorf("transport: handshake to peer %d (%s) failed", j, e.addrs[j])
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dial peer %d (%s): %v", j, e.addrs[j], err)
		}
		select {
		case <-e.done:
			return ErrClosed
		case <-time.After(bo.Next()):
		}
	}
}

// handshakeDial runs the dial side of the handshake on conn and installs
// it on success; on any failure the connection is closed and false
// returned. The link is fenced before the hello goes out so the receive
// count it advertises is frozen. A resumable link reads the peer's reply
// before installing — its receive count says what to replay — while a
// link that cannot resume installs at once: no reply comes.
func (e *TCPEndpoint) handshakeDial(conn net.Conn, peer int) bool {
	p := e.peers[peer]
	p.mu.Lock()
	if e.closing.Load() {
		p.mu.Unlock()
		_ = conn.Close()
		return false
	}
	gen, recvd := e.fenceLinkLocked(p, p.inc)
	p.mu.Unlock()

	if err := wire.WriteFrame(conn, e.hello(gen, recvd)); err != nil {
		e.abandonHandshake(p, gen, conn)
		return false
	}
	if !e.cfg.Reconnect {
		return e.installConn(p, conn, gen, 0, 0)
	}
	var reply wire.Msg
	from, inc, remoteRecv, err := e.readHello(conn, &reply)
	if err != nil || from != peer {
		e.abandonHandshake(p, gen, conn)
		return false
	}
	return e.installConn(p, conn, gen, inc, remoteRecv)
}

// fenceLinkLocked (p.mu held) supersedes the current socket ahead of a
// handshake: the old connection is closed and the generation bumped, so
// the old read loop drops anything still buffered and the old writer's
// in-flight frame lands in the retain buffer or back on the queue instead
// of being counted against a live link. The returned generation names the
// slot the new connection must install into, and the returned receive
// count is safe to advertise — nothing can advance it until a new socket
// is installed at that generation. A hello from a fresh incarnation starts
// a new session here, before the count is read: the restarted peer's
// counters are zero, so ours must be too (its predecessor's unreplayed
// frames die — Join resynchronizes state wholesale).
func (e *TCPEndpoint) fenceLinkLocked(p *tcpPeer, inc int64) (gen int, recvd int64) {
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
		p.bw = nil
	}
	p.gen++
	if inc > p.inc {
		p.inc = inc
		p.departed = false
		p.ackedSeq = 0
		p.dropRetainLocked()
		p.recvSeq, p.ackSent = 0, 0
	}
	return p.gen, p.recvSeq
}

// abandonHandshake gives up on a connection after its link was already
// fenced: unless a newer handshake has re-fenced the link, it is downed so
// the grace timer and (on the dialing side) the redial loop take over —
// or, without Reconnect, so the peer is gone.
func (e *TCPEndpoint) abandonHandshake(p *tcpPeer, gen int, conn net.Conn) {
	_ = conn.Close()
	p.mu.Lock()
	if p.gen == gen && !e.closing.Load() {
		e.linkDownLocked(p)
	}
	p.mu.Unlock()
}

// installConn completes a handshake by installing conn into the fenced
// generation. It waits out a writer mid-write on the fenced socket (the
// fence closed it, so the write errors promptly and the frame is restaged),
// realigns the session to the peer's advertised receive count — confirmed
// retained frames are dropped, unconfirmed ones are restaged ahead of the
// queue to be re-sent and re-retained in order — and starts a
// generation-checked read loop. Clearing the gone verdict makes the link
// usable again, so a peer the runtime evicted can Join over it.
func (e *TCPEndpoint) installConn(p *tcpPeer, conn net.Conn, gen int, inc, remoteRecv int64) bool {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	p.mu.Lock()
	for p.gen == gen && p.inflight {
		p.cond.Wait()
	}
	if e.closing.Load() || p.gen != gen {
		p.mu.Unlock()
		_ = conn.Close()
		return false
	}
	if inc > p.inc {
		// Only the dial side learns of a restart this late (its own hello
		// went out first). The restarted peer counts its receives from
		// zero, so the send side of the session restarts too; our receive
		// count stays — the peer's install adopted it as its send base.
		p.inc = inc
		p.departed = false
		p.ackedSeq = 0
		p.dropRetainLocked()
	}
	if remoteRecv >= p.ackedSeq {
		// Release what the peer confirms, restage the unconfirmed tail
		// ahead of everything not yet written (the queue inherits the
		// restaged entries).
		drop := min(int(remoteRecv-p.ackedSeq), len(p.retain))
		for _, ent := range p.retain[:drop] {
			ent.enc.Release()
		}
		p.q.unpop(p.retain[drop:]...)
		p.retain = nil
	} else {
		// remoteRecv < ackedSeq means the peer has no memory of frames it
		// once confirmed — a session this side never observed ending. The
		// retained tail belongs to that dead session; realign to the
		// peer's count.
		p.dropRetainLocked()
	}
	p.ackedSeq = remoteRecv
	reconnected := p.linked
	p.conn = conn
	p.bw = bufio.NewWriter(conn)
	p.gone = false
	p.hbMiss = 0
	p.lastRecv.Store(time.Now().UnixNano())
	if p.q.len() > 0 {
		// What queued while the link was down goes out now, not at the
		// next barrier.
		p.flushReq = true
	}
	p.linked = true
	if reconnected && e.cfg.Metrics != nil { // before traffic can resume
		e.cfg.Metrics.Add(metrics.Reconnects, 1)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if !reconnected && int(e.linksUp.Add(1)) == len(e.links) {
		e.setupEvent(nil)
	}
	e.wg.Add(1)
	go e.readConn(p, conn, gen)
	return true
}

// linkDownLocked (p.mu held) tears down the current socket after a read or
// write error, a heartbeat verdict, or a failed handshake: the connection
// is closed, with the (link-local) control frames queued for it, and a
// departed peer's link is simply left down. Otherwise,
// without Reconnect the peer is gone at once and its queue dropped; with
// it, the redial loop is started when this side dials the link, and a
// grace timer declares the peer gone if no replacement arrives in time.
func (e *TCPEndpoint) linkDownLocked(p *tcpPeer) {
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
		p.bw = nil
	}
	p.q.dropCtrl()
	p.cond.Broadcast()
	if p.departed || e.closing.Load() {
		return
	}
	if !e.cfg.Reconnect {
		p.gone = true
		p.dropQueueLocked()
		return
	}
	gen := p.gen
	time.AfterFunc(e.cfg.ReconnectGrace, func() {
		p.mu.Lock()
		if p.gen == gen && p.conn == nil && !p.gone && !p.departed {
			p.gone = true
			p.dropQueueLocked()
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	})
	if p.id < e.id && !p.redialing {
		p.redialing = true
		e.wg.Add(1)
		go e.redialLoop(p)
	}
}

// redialLoop re-establishes a resumable link to a lower-id peer with
// jittered exponential backoff. It never gives up on its own: even after
// the grace timer declares the peer gone, a successful handshake (the peer
// restarted) resurrects the link. It stops only on shutdown, departure, or
// success.
func (e *TCPEndpoint) redialLoop(p *tcpPeer) {
	defer e.wg.Done()
	defer func() {
		p.mu.Lock()
		p.redialing = false
		p.mu.Unlock()
	}()
	bo := Backoff{Base: e.cfg.BackoffBase, Max: e.cfg.BackoffMax,
		Seed: e.cfg.BackoffSeed ^ uint64(e.id)<<32 ^ uint64(p.id) ^ 0x5dee}
	for {
		p.mu.Lock()
		stop := p.conn != nil || p.departed || e.closing.Load()
		p.mu.Unlock()
		if stop {
			return
		}
		conn, err := net.DialTimeout("tcp", e.addrs[p.id], time.Second)
		if err == nil && e.handshakeDial(conn, p.id) {
			return
		}
		select {
		case <-e.done:
			return
		case <-time.After(bo.Next()):
		}
	}
}

// readConn is the read loop of one socket generation. It decodes frames,
// stamps them with the link's routing and hands each to deliver. On a read
// error — the peer died or hung up, the socket was replaced, or the peer
// sent garbage the codec rejects — it downs the link if its generation is
// still the installed one and exits. A departed peer's write side stays
// until a write to it fails, so what is sent to it does not depend on when
// its hang-up was read. The loop never wedges: wire.ReadFrame bounds every
// allocation and the loop blocks on nothing but the socket. It is kept
// this small so its goroutine's first stack holds it.
func (e *TCPEndpoint) readConn(p *tcpPeer, conn net.Conn, gen int) {
	defer e.wg.Done()
	br := bufio.NewReader(conn)
	for {
		m := wire.GetMsg()
		if err := wire.ReadFrameCarved(br, m, &e.ints); err != nil {
			e.Recycle(m)
			p.mu.Lock()
			if p.gen == gen && !p.departed {
				e.linkDownLocked(p)
			}
			p.mu.Unlock()
			return
		}
		m.Src, m.Dst = int32(p.id), int32(e.id) // routing is the link's, not the frame's
		p.lastRecv.Store(time.Now().UnixNano())
		if !e.deliver(p, gen, m) {
			return
		}
	}
}

// deliver takes one frame read from p's socket at generation gen and
// reports whether the read loop goes on. Transport-internal kinds are
// consumed here: a PING or PONG carries the peer's receive count in its
// Ints, acknowledging retained frames, and a stray hello is dropped. Data
// frames advance the session's receive count and land in the shared
// receive queue, with an unsolicited PONG ack volunteered every
// sessionAckEvery frames on a resumable link. Every frame is
// generation-checked under p.mu: a superseded loop can still drain frames
// buffered before its socket closed, and counting or delivering those
// would corrupt the session.
func (e *TCPEndpoint) deliver(p *tcpPeer, gen int, m *wire.Msg) bool {
	var ack int64
	if len(m.Ints) > 0 {
		ack = m.Ints[0]
	}
	if m.Kind == wire.KindPing || m.Kind == wire.KindPong || m.Kind == wire.KindHello {
		kind, seq := m.Kind, m.Stamp
		e.Recycle(m)
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.gen != gen {
			return false
		}
		if kind == wire.KindHello {
			return true
		}
		p.ackRetainLocked(ack)
		if kind == wire.KindPing {
			p.ackSent = p.recvSeq
			e.sendControlLocked(p, &wire.Msg{Kind: wire.KindPong, Stamp: seq, Ints: []int64{p.recvSeq}})
		}
		return true
	}
	p.mu.Lock()
	if p.gen != gen {
		p.mu.Unlock()
		e.Recycle(m)
		return false
	}
	if announcesDone(m) {
		p.departed = true
	}
	p.recvSeq++
	if e.cfg.Reconnect && p.recvSeq-p.ackSent >= sessionAckEvery {
		p.ackSent = p.recvSeq
		e.sendControlLocked(p, &wire.Msg{Kind: wire.KindPong, Ints: []int64{p.recvSeq}})
	}
	p.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.departed {
		e.Recycle(m)
		return !e.closing.Load() // quiesce, after Depart or Close, reads acks
	}
	e.queue.push(m)
	e.cond.Signal()
	return true
}

// announcesDone reports whether m tells the receiver its sender finished:
// a bare DONE, or the final DATA frame carrying the DONE piggybacked. A
// hang-up after it is a departure, not a crash.
func announcesDone(m *wire.Msg) bool {
	return m.Kind == wire.KindDone || m.Kind == wire.KindData && m.Mode&wire.ModeDonePiggyback != 0
}

// ackRetainLocked (p.mu held) releases retained frames the peer's receive
// count covers. Counts regress only across a session restart (a fresh
// incarnation) and never race one: acks are processed on the generation-
// checked read loop, so a stale ack for a dead session cannot land here.
func (p *tcpPeer) ackRetainLocked(ack int64) {
	n := min(int(ack-p.ackedSeq), len(p.retain))
	if n <= 0 {
		return
	}
	for _, ent := range p.retain[:n] {
		ent.enc.Release()
	}
	p.retain = p.retain[n:]
	p.ackedSeq += int64(n)
	p.cond.Broadcast() // quiesce may be waiting for the ack
}

// enqueue stages one encoded frame on p's bounded queue, blocking while
// the queue is full. It takes ownership of enc: the frame is released by
// whichever path dequeues it, or right here when the peer cannot accept
// it. It returns nil for a departed peer whose link is down (a legitimate
// exit, the same contract as the in-memory transport) and ErrPeerGone for
// one whose link is down for good.
func (e *TCPEndpoint) enqueue(p *tcpPeer, enc *wire.Encoded) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case e.closing.Load(), p.draining:
			enc.Release()
			return ErrClosed
		case p.departed && p.conn == nil:
			enc.Release()
			return nil
		case p.gone:
			enc.Release()
			return ErrPeerGone
		}
		if p.q.len() < e.cfg.SendQueueFrames && p.q.bytes+enc.Len() <= e.cfg.SendQueueBytes {
			break
		}
		// A sender waiting for room is a barrier too: the writer takes
		// the queue now, whatever the threshold.
		p.flushReq = true
		p.cond.Broadcast()
		p.cond.Wait()
	}
	p.q.push(sendEntry{enc: enc})
	if m := e.cfg.Metrics; m != nil {
		m.Max(metrics.SendQDepthPeak, p.q.len())
	}
	if e.dueLocked(p) {
		p.cond.Broadcast()
	}
	return nil
}

// sendControlLocked (p.mu held) stages a transport-internal frame
// (PING/PONG) without ever blocking: heartbeats must keep flowing — and
// the monitor must keep running — even when a peer's queue is full, so a
// frame that does not fit is simply dropped and regenerated next interval.
// A probe or an ack held back to the next barrier would be no use, so it
// makes the queue due. Draining or a peer's DONE does not stop it: a
// quiescing endpoint's PING is answered.
func (e *TCPEndpoint) sendControlLocked(p *tcpPeer, m *wire.Msg) {
	enc, err := wire.EncodeFrame(m)
	if err != nil {
		return
	}
	if e.closing.Load() || p.gone || p.conn == nil ||
		p.q.len() >= e.cfg.SendQueueFrames || p.q.bytes+enc.Len() > e.cfg.SendQueueBytes {
		enc.Release()
		return
	}
	p.q.push(sendEntry{enc: enc, ctrl: true})
	p.flushReq = true
	p.cond.Broadcast()
}

// pingLocked (p.mu held) probes p. The PING doubles as an ack, its Ints
// carrying our receive count, so an idle-but-retaining peer gets released;
// and the peer's PONG acks every frame written before it.
func (e *TCPEndpoint) pingLocked(p *tcpPeer) {
	p.ackSent = p.recvSeq
	e.sendControlLocked(p, &wire.Msg{Kind: wire.KindPing, Stamp: p.pingSeq, Ints: []int64{p.recvSeq}})
	p.pingSeq++
}

// dropQueueLocked discards everything queued for a peer declared gone
// (p.mu held), releasing each frame back to the pool: the runtime will
// evict and, if the peer returns, the Join path re-synchronizes state
// wholesale.
func (p *tcpPeer) dropQueueLocked() {
	for _, ent := range p.q.entries() {
		ent.enc.Release()
	}
	p.q = sendQueue{}
}

// dropRetainLocked releases and forgets the retained replay tail (p.mu
// held) — used when a session ends (fresh incarnation, realignment, or
// shutdown) and the frames can never be replayed.
func (p *tcpPeer) dropRetainLocked() {
	for _, ent := range p.retain {
		ent.enc.Release()
	}
	p.retain = nil
}

// dueLocked (p.mu held) reports whether p's writer must take its queue
// now: there is a socket and something queued, and either every send
// flushes (no threshold), a barrier covers the queue (Flush, a waiting
// sender, a control frame, a resumed link), the endpoint is draining, or
// the queue reached the threshold.
func (e *TCPEndpoint) dueLocked(p *tcpPeer) bool {
	thr := e.cfg.FlushThreshold
	return p.conn != nil && p.q.len() > 0 &&
		(thr <= 0 || p.flushReq || p.draining || p.q.bytes >= thr)
}

// writeLoop is peer p's writer: once its queue is due it writes every
// queued frame onto whatever socket is installed and flushes when the
// queue has run dry. It exits at shutdown, and once a link that cannot
// resume is down. All socket writes happen outside p.mu, so a stalled
// TCP connection blocks only this goroutine (and a Flush waiting for it)
// — senders keep staging until the queue cap applies backpressure. A
// written data frame on a resumable link is retained until the peer
// acknowledges it; otherwise it is released at once. A write error puts
// the frame back at the front of the queue and downs the link, so a
// resumable link re-sends it on the next socket. Control frames are
// link-local and die with the socket. The install step waits for inflight
// to clear before realigning the session, so the frame put back or
// retained is always accounted before replay ordering is computed.
func (e *TCPEndpoint) writeLoop(p *tcpPeer) {
	defer e.wg.Done()
	m := e.cfg.Metrics
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if e.closing.Load() || !e.cfg.Reconnect && p.linked && p.conn == nil {
			return // shutdown, or a link that cannot resume is down for good
		}
		if !e.dueLocked(p) {
			p.cond.Wait()
			continue
		}
		p.inflight = true
		bw, gen := p.bw, p.gen
		var err error
		// The socket written to is the installed one while gen holds and
		// the link is up.
		live := func() bool { return p.gen == gen && p.conn != nil }
		for p.q.len() > 0 && live() {
			ent := p.q.pop()
			p.cond.Broadcast() // room for a waiting sender
			p.mu.Unlock()
			_, err = bw.Write(ent.enc.Frame())
			p.mu.Lock()
			if err != nil {
				if ent.ctrl {
					ent.enc.Release()
				} else {
					p.q.unpop(ent)
				}
				break
			}
			if m != nil {
				m.Add(metrics.FramesSent, 1)
				m.Add(metrics.WireBytes, ent.size())
			}
			if ent.ctrl || !e.cfg.Reconnect {
				ent.enc.Release()
			} else {
				// The entry moves to the retain buffer until the peer
				// acks it (ackRetainLocked releases).
				p.retain = append(p.retain, ent)
			}
		}
		if p.q.len() == 0 {
			p.flushReq = false // every frame a barrier covered is written
		}
		if err == nil && live() {
			p.mu.Unlock()
			err = bw.Flush()
			p.mu.Lock()
			if err == nil && m != nil {
				m.Add(metrics.Flushes, 1)
			}
		}
		p.inflight = false
		if err != nil && live() {
			e.linkDownLocked(p)
		}
		p.cond.Broadcast()
	}
}

// heartbeatLoop probes idle links and tears down those silent past the
// miss budget. Any received frame resets a link's idle clock (the read
// loop stamps lastRecv), so a busy link is never probed; an idle-but-
// healthy one answers PING with PONG well inside one interval.
func (e *TCPEndpoint) heartbeatLoop() {
	defer e.wg.Done()
	iv := e.cfg.HeartbeatInterval
	tick := time.NewTicker(max(iv/2, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range e.links {
			idle := now.Sub(time.Unix(0, p.lastRecv.Load()))
			p.mu.Lock()
			if p.conn != nil && !p.departed && idle >= iv {
				if misses := int(idle/iv) - 1; misses > p.hbMiss {
					if m := e.cfg.Metrics; m != nil {
						m.Add(metrics.HeartbeatsMissed, misses-p.hbMiss)
					}
					p.hbMiss = misses
				}
				if p.hbMiss >= e.cfg.HeartbeatMisses {
					e.linkDownLocked(p)
				} else {
					e.pingLocked(p)
				}
			}
			p.mu.Unlock()
		}
	}
}

// quiesce stops new sends on every link — they fail with ErrClosed — and
// gives the writers CloseGrace to put everything queued on the wire:
// draining makes every queued frame due, whatever the flush threshold. A
// resumable link also waits until a peer still playing acks every retained
// frame: one a cut loses (this endpoint's DONE, say) is replayed only while
// this endpoint is there. So each such link gets a PING behind its queue,
// and again behind a replay; its PONG acks all that went before. A link
// that cannot deliver (gone, or down to a departed peer) is not waited
// for; a resumable link that is down is, since it may come back. It
// returns the bytes queued when it began and those still queued when it
// returned.
func (e *TCPEndpoint) quiesce() (queued, left int) {
	busy := false
	pinged := make([]int, len(e.links)) // the socket generation each PING went out on
	for i, p := range e.links {
		p.mu.Lock()
		p.draining = true
		queued += p.q.bytes
		pinged[i] = e.solicitLocked(p, -1)
		busy = busy || p.pendingLocked()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	if !busy {
		return queued, 0
	}
	var expired atomic.Bool
	timer := time.AfterFunc(e.cfg.CloseGrace, func() {
		expired.Store(true)
		for _, p := range e.links {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	})
	defer timer.Stop()
	for i, p := range e.links {
		p.mu.Lock()
		for p.pendingLocked() && !p.gone && !(p.departed && p.conn == nil) &&
			!e.closing.Load() && !expired.Load() {
			pinged[i] = e.solicitLocked(p, pinged[i])
			p.cond.Wait()
		}
		left += p.q.bytes
		p.mu.Unlock()
	}
	return queued, left
}

// solicitLocked (p.mu held) PINGs a resumable link that is up, unless its
// socket generation is pinged already; it returns the last one PINGed.
func (e *TCPEndpoint) solicitLocked(p *tcpPeer, pinged int) int {
	if !e.cfg.Reconnect || p.conn == nil || p.gen == pinged {
		return pinged
	}
	e.pingLocked(p)
	return p.gen
}

// pendingLocked (p.mu held) reports whether quiesce still waits for p: a
// frame is queued or being written, or a peer still playing has yet to
// acknowledge a retained one (only a resumable link retains).
func (p *tcpPeer) pendingLocked() bool {
	return p.q.len() > 0 || p.inflight || len(p.retain) > 0 && !p.departed
}

// shutdown stops every loop and reaps it, then returns whatever frames
// never made it out (and the retained tails nobody will ever ack) to the
// pool. A hard shutdown cuts every socket with an RST at once; a soft one
// half-closes each link (FIN) and gives the read loops CloseGrace to see
// their peers hang up before cutting what is left.
func (e *TCPEndpoint) shutdown(hard bool) {
	e.closing.Store(true)
	close(e.done)
	_ = e.ln.Close()
	e.mu.Lock()
	for conn := range e.handshaking {
		_ = conn.Close()
	}
	e.mu.Unlock()
	for _, p := range e.links {
		p.mu.Lock()
		if tc, ok := p.conn.(*net.TCPConn); ok {
			if hard {
				_ = tc.SetLinger(0)
			} else {
				_ = tc.CloseWrite()
			}
		}
		if hard && p.conn != nil {
			_ = p.conn.Close()
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	if !hard {
		finished := make(chan struct{})
		go func() {
			e.wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(e.cfg.CloseGrace):
		}
		for _, p := range e.links {
			p.mu.Lock()
			if p.conn != nil {
				_ = p.conn.Close()
			}
			p.mu.Unlock()
		}
	}
	e.wg.Wait()
	for _, p := range e.links {
		p.mu.Lock()
		p.dropQueueLocked()
		p.dropRetainLocked()
		p.mu.Unlock()
	}
}
