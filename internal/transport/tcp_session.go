package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"sdso/internal/wire"
)

// This file is the TCP session layer: the resilient mode of TCPEndpoint,
// selected by any of TCPConfig's resilience fields (see TCPConfig). Where
// the legacy mesh dials once and treats a broken socket as a permanent
// ErrPeerGone, the session layer keeps each link alive across socket
// deaths:
//
//   - Handshakes are symmetric and incarnation-stamped: both sides send
//     KindHello{Stamp: id, Ints: [incarnation, generation, recvCount]}. A
//     connection presenting an older incarnation than the link has already
//     seen is refused; an equal or newer one replaces whatever socket is
//     installed (closing a stale one), so a restarted process reclaims its
//     links.
//   - Sessions resume across socket deaths: within one incarnation pair the
//     link is a reliable FIFO channel. Both ends count delivered data
//     frames (the wire format is untouched — counting is implicit in the
//     in-order stream), written frames are retained until the peer
//     acknowledges them (acks ride PING/PONG and a periodic unsolicited
//     PONG), and the handshake's recvCount tells the sender exactly which
//     retained frames to replay. Protocols above keep the delivery
//     guarantee TCP gave them, so fire-and-forget messages (EC lock
//     releases, DONE announcements) survive connection kills. A fresh
//     incarnation starts a new session from zero: its predecessor's frames
//     are not replayed — the Join path resynchronizes state wholesale.
//   - On connection loss the higher-id side of the link redials with
//     jittered exponential backoff (the id-ordered dial/accept split of
//     the startup mesh is kept, so exactly one side dials) while the
//     lower-id side re-accepts on its long-lived listener.
//   - Sends stage encoded frames in a bounded per-peer queue drained by a
//     writer goroutine, so a stalled or dead socket never blocks the
//     caller inside a kernel write; a full queue blocks or sheds
//     SYNC-class frames per TCPConfig.SendQueuePolicy.
//   - A link down for longer than ReconnectGrace declares the peer gone:
//     queued frames are dropped, Send returns ErrPeerGone, and PeerGone
//     reports true so the runtime's failure detector can evict without
//     burning its full retransmit budget. The redial loop keeps trying
//     regardless — a later connection with a fresh incarnation resurrects
//     the link, which is how an evicted-then-restarted process gets a
//     live link to Join over.
//   - Optional PING/PONG heartbeats bound how long a silent socket can
//     masquerade as a live one (the timeout-based failure detector of
//     Aspnes's notes): any received frame is liveness evidence, an idle
//     link is probed every interval, and a link idle past the miss budget
//     is torn down into the reconnect machinery.

// startSession brings up the resilient mesh: per-peer writers, the
// long-lived accept loop, the optional heartbeat monitor, and the initial
// links (dial lower ids, await accepts from higher ids) within DialTimeout.
func (e *TCPEndpoint) startSession() error {
	for j := 0; j < e.n; j++ {
		if j == e.id {
			continue
		}
		p := &tcpPeer{id: j}
		p.cond = sync.NewCond(&p.mu)
		e.mu.Lock()
		e.peers[j] = p
		e.mu.Unlock()
		e.wg.Add(1)
		go e.writeLoop(p)
	}
	e.wg.Add(1)
	go e.acceptLoop()
	if e.cfg.HeartbeatInterval > 0 {
		e.wg.Add(1)
		go e.heartbeatLoop()
	}

	deadline := time.Now().Add(e.cfg.DialTimeout)
	for j := 0; j < e.id; j++ {
		if err := e.dialSession(j, deadline); err != nil {
			return err
		}
	}
	for {
		up := true
		for j := e.id + 1; j < e.n; j++ {
			p := e.peers[j]
			p.mu.Lock()
			if p.conn == nil {
				up = false
			}
			p.mu.Unlock()
			if !up {
				break
			}
		}
		if up {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: node %d: peers did not all connect within %v", e.id, e.cfg.DialTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// acceptLoop serves the listener for the life of the endpoint: unlike the
// legacy mesh, which accepts exactly n-1-id startup connections, restarted
// or reconnecting peers may arrive at any time.
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

// sessionAckEvery is the unsolicited-acknowledgement cadence: after this
// many unacknowledged data frames the receiver volunteers a PONG carrying
// its receive count, bounding how much the sender must retain for replay
// on links too busy for idle-triggered heartbeats to ack.
const sessionAckEvery = 32

// helloInts unpacks the variable part of a session hello: the sender's
// incarnation and how many data frames it has received on this session
// (the resume point — retained frames beyond it are replayed). Older
// two-int hellos (no resumption) read as count zero, which degrades to
// replaying everything retained; pre-resilience one-way hellos never reach
// this path.
func helloInts(m *wire.Msg) (inc, recvd int64) {
	inc = 1
	if len(m.Ints) > 0 {
		inc = m.Ints[0]
	}
	if len(m.Ints) > 2 {
		recvd = m.Ints[2]
	}
	return inc, recvd
}

// handleAccept runs the accept side of the handshake: read the peer's
// hello (bounded by a deadline so a garbage or stalled connection cannot
// wedge the endpoint), validate it names a higher-id peer, fence the link,
// reply with our own hello, and install the connection.
func (e *TCPEndpoint) handleAccept(conn net.Conn) {
	defer e.wg.Done()
	_ = conn.SetReadDeadline(time.Now().Add(e.cfg.DialTimeout))
	var hello wire.Msg
	if err := wire.ReadFrame(conn, &hello); err != nil || hello.Kind != wire.KindHello {
		_ = conn.Close()
		return
	}
	peer := int(hello.Stamp)
	if peer <= e.id || peer >= e.n {
		_ = conn.Close()
		return
	}
	inc, remoteRecv := helloInts(&hello)
	_ = conn.SetReadDeadline(time.Time{})
	p := e.peers[peer]

	p.mu.Lock()
	if e.closing.Load() || inc < p.inc {
		// A stale socket racing a restarted process's fresh one (or our own
		// shutdown): answer politely so the dialer can see who it reached,
		// but leave the installed link untouched.
		gen, recvd := p.gen, p.recvSeq
		p.mu.Unlock()
		_ = wire.WriteFrame(conn, &wire.Msg{Kind: wire.KindHello, Stamp: int64(e.id),
			Ints: []int64{e.cfg.Incarnation, int64(gen), recvd}})
		_ = conn.Close()
		return
	}
	gen, recvd := e.fenceLinkLocked(p, inc)
	p.mu.Unlock()

	// The receive count is advertised post-fence: the superseded read loop
	// is generation-fenced out, so the count cannot move between here and
	// the install.
	reply := &wire.Msg{Kind: wire.KindHello, Stamp: int64(e.id),
		Ints: []int64{e.cfg.Incarnation, int64(gen), recvd}}
	if err := wire.WriteFrame(conn, reply); err != nil {
		e.abandonHandshake(p, gen, conn)
		return
	}
	e.installConn(p, conn, gen, inc, remoteRecv)
}

// dialSession establishes the startup link to lower-id peer j, retrying
// with jittered backoff until the deadline.
func (e *TCPEndpoint) dialSession(j int, deadline time.Time) error {
	bo := Backoff{Base: e.cfg.BackoffBase, Max: e.cfg.BackoffMax,
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
// count it advertises is frozen.
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

	hello := &wire.Msg{Kind: wire.KindHello, Stamp: int64(e.id),
		Ints: []int64{e.cfg.Incarnation, int64(gen), recvd}}
	if err := wire.WriteFrame(conn, hello); err != nil {
		e.abandonHandshake(p, gen, conn)
		return false
	}
	_ = conn.SetReadDeadline(time.Now().Add(e.cfg.DialTimeout))
	var reply wire.Msg
	if err := wire.ReadFrame(conn, &reply); err != nil ||
		reply.Kind != wire.KindHello || int(reply.Stamp) != peer {
		e.abandonHandshake(p, gen, conn)
		return false
	}
	inc, remoteRecv := helloInts(&reply)
	_ = conn.SetReadDeadline(time.Time{})
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
		p.sentSeq, p.ackedSeq = 0, 0
		p.dropRetainLocked()
		p.recvSeq, p.ackSent = 0, 0
	}
	return p.gen, p.recvSeq
}

// abandonHandshake gives up on a connection after its link was already
// fenced: unless a newer handshake has re-fenced the link, it is downed so
// the grace timer and (on the dialing side) the redial loop take over.
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
// queue to be re-sent, re-counted, and re-retained in order — and starts a
// generation-checked read loop. Clearing the gone/departed verdicts makes
// the link usable again, so a peer the runtime evicted can Join over it.
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
		p.sentSeq, p.ackedSeq = 0, 0
		p.dropRetainLocked()
	}
	if remoteRecv >= p.ackedSeq {
		// Release what the peer confirms, restage the unconfirmed tail
		// ahead of everything not yet written (the queue inherits the
		// restaged entries' references).
		drop := int(remoteRecv - p.ackedSeq)
		if drop > len(p.retain) {
			drop = len(p.retain)
		}
		for _, ent := range p.retain[:drop] {
			ent.enc.Release()
		}
		if rest := p.retain[drop:]; len(rest) > 0 {
			q := make([]sendEntry, 0, len(rest)+len(p.q))
			p.q = append(append(q, rest...), p.q...)
			for _, ent := range rest {
				p.qBytes += ent.size()
			}
		}
		p.retain, p.retainBytes = nil, 0
	} else {
		// remoteRecv < ackedSeq means the peer has no memory of frames it
		// once confirmed — a session this side never observed ending. The
		// retained tail belongs to that dead session; realign to the
		// peer's count.
		p.dropRetainLocked()
	}
	p.sentSeq, p.ackedSeq = remoteRecv, remoteRecv
	reconnected := gen > 1
	p.conn = conn
	p.bw = bufio.NewWriter(conn)
	p.gone = false
	p.hbMiss = 0
	p.lastRecv.Store(time.Now().UnixNano())
	p.cond.Broadcast()
	p.mu.Unlock()
	if reconnected && e.cfg.Metrics != nil {
		e.cfg.Metrics.AddReconnect()
	}
	e.wg.Add(1)
	go e.readLoopSession(p, conn, gen)
	return true
}

// linkDownLocked (p.mu held) tears down the current socket after a read or
// write error, a heartbeat verdict, or a stale replacement: the connection
// is closed, the redial loop is started when this side dials the link, and
// a grace timer declares the peer gone if no replacement arrives in time.
// A departed peer's link is simply left down.
func (e *TCPEndpoint) linkDownLocked(p *tcpPeer) {
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
		p.bw = nil
	}
	p.cond.Broadcast()
	if p.departed || e.closing.Load() {
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

// redialLoop re-establishes the link to a lower-id peer with jittered
// exponential backoff. It never gives up on its own: even after the grace
// timer declares the peer gone, a successful handshake (the peer
// restarted) resurrects the link. It stops only on shutdown, departure, or
// success.
func (e *TCPEndpoint) redialLoop(p *tcpPeer) {
	defer e.wg.Done()
	bo := Backoff{Base: e.cfg.BackoffBase, Max: e.cfg.BackoffMax,
		Seed: e.cfg.BackoffSeed ^ uint64(e.id)<<32 ^ uint64(p.id) ^ 0x5dee}
	for {
		p.mu.Lock()
		stop := p.conn != nil || p.departed || e.closing.Load()
		if stop {
			p.redialing = false
		}
		p.mu.Unlock()
		if stop {
			return
		}
		conn, err := net.DialTimeout("tcp", e.addrs[p.id], time.Second)
		if err == nil && e.handshakeDial(conn, p.id) {
			p.mu.Lock()
			p.redialing = false
			p.mu.Unlock()
			return
		}
		select {
		case <-e.done:
			p.mu.Lock()
			p.redialing = false
			p.mu.Unlock()
			return
		case <-time.After(bo.Next()):
		}
	}
}

// readLoopSession drains frames from one socket generation. Transport-
// internal kinds (PING/PONG, stray hellos) are consumed here — their Ints
// carry the peer's receive count, acknowledging retained frames; data
// frames advance the session's receive count and land in the shared
// receive queue, with an unsolicited PONG ack volunteered every
// sessionAckEvery frames. Every frame is generation-checked under p.mu: a
// superseded loop can still drain frames buffered before its socket
// closed, and counting or delivering those would corrupt the session. On a
// read error — the peer died, the socket was replaced, or the peer sent
// garbage the codec rejects — the loop downs the link if its generation is
// still the installed one and exits; it can never wedge, because
// wire.ReadFrame bounds every allocation and the loop never blocks on
// anything but the socket.
func (e *TCPEndpoint) readLoopSession(p *tcpPeer, conn net.Conn, gen int) {
	defer e.wg.Done()
	br := bufio.NewReader(conn)
	for {
		m := wire.GetMsg()
		if err := wire.ReadFrameCarved(br, m, &e.ints); err != nil {
			e.Recycle(m)
			p.mu.Lock()
			if p.gen == gen {
				e.linkDownLocked(p)
			}
			p.mu.Unlock()
			return
		}
		m.Src, m.Dst = int32(p.id), int32(e.id) // routing is the link's, not the frame's
		p.lastRecv.Store(time.Now().UnixNano())
		switch m.Kind {
		case wire.KindPing:
			seq := m.Stamp
			ack := int64(0)
			if len(m.Ints) > 0 {
				ack = m.Ints[0]
			}
			e.Recycle(m)
			p.mu.Lock()
			if p.gen != gen {
				p.mu.Unlock()
				return
			}
			p.ackRetainLocked(ack)
			recvd := p.recvSeq
			p.ackSent = recvd
			p.mu.Unlock()
			e.sendControl(p, &wire.Msg{Kind: wire.KindPong, Stamp: seq, Ints: []int64{recvd}})
			continue
		case wire.KindPong, wire.KindHello:
			ack := int64(0)
			if len(m.Ints) > 0 && m.Kind == wire.KindPong {
				ack = m.Ints[0]
			}
			e.Recycle(m)
			if ack > 0 {
				p.mu.Lock()
				if p.gen != gen {
					p.mu.Unlock()
					return
				}
				p.ackRetainLocked(ack)
				p.mu.Unlock()
			}
			continue
		}
		p.mu.Lock()
		if p.gen != gen {
			p.mu.Unlock()
			e.Recycle(m)
			return
		}
		if m.Kind == wire.KindDone {
			p.departed = true
		}
		p.recvSeq++
		ackNow := int64(0)
		if p.recvSeq-p.ackSent >= sessionAckEvery {
			p.ackSent = p.recvSeq
			ackNow = p.recvSeq
		}
		p.mu.Unlock()
		if ackNow > 0 {
			e.sendControl(p, &wire.Msg{Kind: wire.KindPong, Ints: []int64{ackNow}})
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

// ackRetainLocked (p.mu held) releases retained frames the peer's receive
// count covers. Counts regress only across a session restart (a fresh
// incarnation) and never race one: acks are processed on the generation-
// checked read loop, so a stale ack for a dead session cannot land here.
func (p *tcpPeer) ackRetainLocked(ack int64) {
	n := int(ack - p.ackedSeq)
	if n <= 0 {
		return
	}
	if n > len(p.retain) {
		n = len(p.retain)
	}
	for _, ent := range p.retain[:n] {
		p.retainBytes -= ent.size()
		ent.enc.Release()
	}
	p.retain = p.retain[n:]
	p.ackedSeq += int64(n)
}

// enqueue stages one encoded frame on p's bounded queue, blocking or
// shedding per the configured policy when the queue is full. It takes
// ownership of the caller's reference to enc: the frame is released by
// whichever path dequeues it, or right here when the peer cannot accept
// it. It returns nil for departed peers (legitimate exit, same contract as
// the legacy mesh) and ErrPeerGone once the reconnect grace expired.
func (e *TCPEndpoint) enqueue(p *tcpPeer, enc *wire.Encoded, kind wire.Kind) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case e.closing.Load():
			enc.Release()
			return ErrClosed
		case p.draining:
			enc.Release()
			return ErrClosed
		case p.departed:
			enc.Release()
			return nil
		case p.gone:
			enc.Release()
			return ErrPeerGone
		}
		if len(p.q) < e.cfg.SendQueueFrames && p.qBytes+enc.Len() <= e.cfg.SendQueueBytes {
			break
		}
		if e.cfg.SendQueuePolicy == QueueShedOldest && e.shedOldestLocked(p) {
			continue
		}
		p.cond.Wait()
	}
	p.q = append(p.q, sendEntry{enc: enc, kind: kind})
	p.qBytes += enc.Len()
	if m := e.cfg.Metrics; m != nil {
		m.NoteSendQDepth(len(p.q))
	}
	p.cond.Broadcast()
	return nil
}

// sendControl stages a transport-internal frame (PING/PONG) without ever
// blocking: heartbeats must keep flowing — and the monitor must keep
// running — even when a peer's queue is full, so a frame that does not fit
// is simply dropped and regenerated next interval.
func (e *TCPEndpoint) sendControl(p *tcpPeer, m *wire.Msg) {
	enc, err := wire.EncodeFrame(m)
	if err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.closing.Load() || p.draining || p.departed || p.gone || p.conn == nil {
		enc.Release()
		return
	}
	if len(p.q) >= e.cfg.SendQueueFrames || p.qBytes+enc.Len() > e.cfg.SendQueueBytes {
		enc.Release()
		return
	}
	p.q = append(p.q, sendEntry{enc: enc, kind: m.Kind, ctrl: true})
	p.qBytes += enc.Len()
	p.cond.Broadcast()
}

// shedOldestLocked drops the oldest sheddable frame from p's queue (p.mu
// held), releasing it back to the pool, and reports whether anything was
// shed. The Release matters: a shed storm that merely forgot the entries
// would bleed the frame pool one buffer per shed (the refcount never
// reaches zero), which TestSessionShedStormReleasesFrames pins.
func (e *TCPEndpoint) shedOldestLocked(p *tcpPeer) bool {
	for i, ent := range p.q {
		if !sheddable(ent.kind) {
			continue
		}
		p.qBytes -= ent.size()
		p.q = append(p.q[:i], p.q[i+1:]...)
		ent.enc.Release()
		if m := e.cfg.Metrics; m != nil {
			m.AddSendQShed()
		}
		return true
	}
	return false
}

// dropQueueLocked discards everything queued for a peer declared gone
// (p.mu held), releasing each frame back to the pool: the runtime will
// evict and, if the peer returns, the Join path re-synchronizes state
// wholesale.
func (p *tcpPeer) dropQueueLocked() {
	for _, ent := range p.q {
		ent.enc.Release()
	}
	p.q = nil
	p.qBytes = 0
}

// dropRetainLocked releases and forgets the retained replay tail (p.mu
// held) — used when a session ends (fresh incarnation, realignment, or
// shutdown) and the frames can never be replayed.
func (p *tcpPeer) dropRetainLocked() {
	for _, ent := range p.retain {
		ent.enc.Release()
	}
	p.retain, p.retainBytes = nil, 0
}

// writeLoop is peer p's writer: it drains the send queue onto whatever
// socket is currently installed, flushing whenever the queue runs dry
// (flush-on-idle replaces the legacy mesh's explicit Flush barrier). All
// socket writes happen outside p.mu, so a stalled TCP connection blocks
// only this goroutine — senders keep staging until the queue cap applies
// backpressure. A written data frame is counted and retained until the
// peer acknowledges it; a write error restages the frame at the front of
// the queue and downs the link, so the frame is re-sent on the next socket
// rather than lost in flight. Control frames are link-local and die with
// the socket. The install step waits for inflight to clear before
// realigning the session, so the restaged or retained frame is always
// accounted before replay ordering is computed.
func (e *TCPEndpoint) writeLoop(p *tcpPeer) {
	defer e.wg.Done()
	p.mu.Lock()
	for {
		for !e.closing.Load() && !(len(p.q) > 0 && p.conn != nil) {
			p.cond.Wait()
		}
		if e.closing.Load() {
			p.mu.Unlock()
			return
		}
		ent := p.q[0]
		p.q = p.q[1:]
		p.qBytes -= ent.size()
		flush := len(p.q) == 0
		bw, gen := p.bw, p.gen
		p.inflight = true
		p.cond.Broadcast()
		p.mu.Unlock()

		_, err := bw.Write(ent.enc.Frame())
		if err == nil {
			if m := e.cfg.Metrics; m != nil {
				m.AddFrame(ent.size())
			}
			if flush {
				if err = bw.Flush(); err == nil && e.cfg.Metrics != nil {
					e.cfg.Metrics.AddFlush()
				}
			}
		}

		p.mu.Lock()
		p.inflight = false
		if err == nil {
			if !ent.ctrl {
				// The entry's reference moves to the retain buffer until
				// the peer acks it (ackRetainLocked releases).
				p.sentSeq++
				p.retain = append(p.retain, ent)
				p.retainBytes += ent.size()
			} else {
				ent.enc.Release()
			}
		} else {
			if !ent.ctrl {
				p.q = append([]sendEntry{ent}, p.q...)
				p.qBytes += ent.size()
			} else {
				ent.enc.Release()
			}
			if p.gen == gen {
				e.linkDownLocked(p)
			}
		}
		p.cond.Broadcast()
	}
}

// heartbeatLoop probes idle links and tears down those silent past the
// miss budget. Any received frame resets a link's idle clock (readLoop
// stamps lastRecv), so a busy link is never probed; an idle-but-healthy
// one answers PING with PONG well inside one interval.
func (e *TCPEndpoint) heartbeatLoop() {
	defer e.wg.Done()
	iv := e.cfg.HeartbeatInterval
	period := iv / 2
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range e.peers {
			if p == nil {
				continue
			}
			idle := now.Sub(time.Unix(0, p.lastRecv.Load()))
			ping := false
			var seq, recvd int64
			p.mu.Lock()
			if p.conn != nil && !p.departed && idle >= iv {
				ping = true
				if misses := int(idle/iv) - 1; misses > p.hbMiss {
					if m := e.cfg.Metrics; m != nil {
						m.AddHeartbeatsMissed(misses - p.hbMiss)
					}
					p.hbMiss = misses
				}
				if p.hbMiss >= e.cfg.HeartbeatMisses {
					e.linkDownLocked(p)
					ping = false
				}
				seq = p.pingSeq
				p.pingSeq++
				recvd = p.recvSeq
				p.ackSent = recvd
			}
			p.mu.Unlock()
			if ping {
				// The probe doubles as an ack: its Ints carry our receive
				// count, so an idle-but-retaining peer gets released.
				e.sendControl(p, &wire.Msg{Kind: wire.KindPing, Stamp: seq, Ints: []int64{recvd}})
			}
		}
	}
}

// closeSession is the session layer's half of Close (e.closed already set,
// Recv unblocked): give the writers CloseGrace to put queued frames on the
// wire, then stop every loop, FIN the links, and reap.
func (e *TCPEndpoint) closeSession(peers []*tcpPeer) {
	e.awaitQuiescent(peers, time.Now().Add(e.cfg.CloseGrace))
	e.closing.Store(true)
	close(e.done)
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			if tc, ok := p.conn.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	_ = e.ln.Close()

	finished := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(e.cfg.CloseGrace):
	}
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
		}
		p.mu.Unlock()
	}
	e.wg.Wait()
	// Every loop is reaped; whatever frames never made it out (and the
	// retained tails nobody will ever ack) go back to the pool.
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

// awaitQuiescent polls until every peer's queue is drained and flushed (or
// the link is beyond hope: gone, dead, or departed), or the deadline hits.
func (e *TCPEndpoint) awaitQuiescent(peers []*tcpPeer, deadline time.Time) {
	for {
		idle := true
		for _, p := range peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			busy := (len(p.q) > 0 || p.inflight) && !p.gone && !p.dead && !p.departed
			p.mu.Unlock()
			if busy {
				idle = false
				break
			}
		}
		if idle || time.Now().After(deadline) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
