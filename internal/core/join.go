// Peer rejoin and late join. A restarted (or brand-new) process broadcasts
// KindJoinReq; every live peer that hears it independently readmits the
// joiner — re-opening its slotted-buffer slot, scheduling it in the
// exchange-list at a pairwise admission tick a little past its own clock,
// and bumping its membership epoch — then answers with a KindJoinAck
// (admission tick + view) and a KindSnapshot (store checkpoint). The
// joiner merges every responder's snapshot version-gated, so the union
// over responders captures every surviving write, and resumes its logical
// clock just before the earliest admission.
//
// Admission is pairwise by design: the paper's rendezvous invariant is
// pairwise agreement on exchange ticks, not a global schedule, so each
// survivor may admit the joiner at a different tick of its own clock. A
// survivor that runs ahead of the joiner's first SYNC simply buffers it as
// early traffic, exactly like any other early rendezvous.
package core

import (
	"errors"
	"fmt"

	"sdso/internal/metrics"
	"sdso/internal/trace"
	"sdso/internal/wire"
)

// joinState tracks one in-progress Join call.
type joinState struct {
	admit   map[int]int64 // peer → admission tick from its KindJoinAck
	snapped map[int]bool  // peer → snapshot merged
}

// Join admits this process into a game already in progress: it broadcasts
// KindJoinReq to every peer, merges the snapshots of all responders, adopts
// each responder's admission tick into the exchange-list, and advances the
// local clock to just before the earliest admission so the next Exchange
// lands exactly on the first granted rendezvous. Peers that never answer
// within the retransmission budget are evicted as crashed. incarnation
// distinguishes successive lives of this process ID (1 for a first restart
// or a brand-new late joiner). Join requires RendezvousTimeout > 0 — a
// joiner cannot wait forever on peers that may be dead.
func (r *Runtime) Join(incarnation int64) error {
	if r.localDone {
		return ErrDone
	}
	timeout := r.cfg.RendezvousTimeout
	if timeout <= 0 {
		return errors.New("core: Join requires RendezvousTimeout (failure detection)")
	}
	var targets []int
	for peer := range r.peers {
		if peer != r.ep.ID() && !r.peers[peer].ended() {
			targets = append(targets, peer)
		}
	}
	js := &joinState{admit: make(map[int]int64), snapped: make(map[int]bool)}
	r.joining = js
	defer func() { r.joining = nil }()
	// Whatever the delta tables assumed predates the snapshot about to be
	// restored: force full records in both directions with every peer.
	r.deltaResetAll()

	req := &wire.Msg{Kind: wire.KindJoinReq, Stamp: incarnation} // kept; clones are sent
	for _, peer := range targets {
		if _, err := r.sendTo(peer, req.Clone(), "join request to"); err != nil {
			return err
		}
	}
	r.flush()
	// Non-responders are presumed dead; the join completes among whoever
	// sent both its ack and its snapshot.
	if _, err := r.await(&waiter{
		peers: targets, timeout: timeout,
		pending: func(peer int) bool {
			_, acked := js.admit[peer]
			return !r.peers[peer].ended() && !(acked && js.snapped[peer])
		},
		resend: func(peer int) (bool, error) { return r.sendTo(peer, req.Clone(), "join retransmit to") },
	}); err != nil {
		return fmt.Errorf("join: %w", err)
	}

	// Resume the clock one tick before the earliest admission: the next
	// Exchange then lands exactly on the first granted rendezvous, and
	// later admissions are already in the exchange-list.
	earliest := int64(-1)
	for _, peer := range targets {
		if admit, ok := js.admit[peer]; ok && !r.peers[peer].ended() && (earliest < 0 || admit < earliest) {
			earliest = admit
		}
	}
	if earliest < 0 {
		return ErrJoinFailed
	}
	if earliest-1 > r.now {
		r.now = earliest - 1
	}
	r.tr.Record(trace.OpJoined, -1, 0, 0, r.now, earliest)
	r.mc.Add(metrics.Joins, 1)
	return nil
}

// serveJoin is the survivor half of the handshake: readmit the joiner,
// grant it an admission tick DefaultJoinSlack past the local clock, and answer
// with the ack and a store snapshot. Serving is idempotent per (peer,
// incarnation): a retransmitted request gets the same admission tick back
// (a fresh tick would desynchronize the pairwise schedule if both acks
// eventually arrive) plus a fresh snapshot.
func (r *Runtime) serveJoin(peer int, m *wire.Msg) {
	ps := &r.peers[peer]
	if peer == r.ep.ID() || r.localDone || ps.is(done) {
		return
	}
	inc := m.Stamp
	if g, ok := r.grants[peer]; ok && g.inc == inc && !ps.barred() {
		r.sendJoinReply(peer, g.tick)
		return
	}
	r.readmitPeer(peer)
	admit := r.now + DefaultJoinSlack
	if r.grants == nil {
		r.grants = make(map[int]grant)
	}
	r.grants[peer] = grant{tick: admit, inc: inc}
	r.xl.Set(peer, admit)
	r.tr.Record(trace.OpAdmit, peer, 0, 0, r.now, admit)
	r.mc.Add(metrics.Joins, 1)
	if r.cfg.OnJoin != nil {
		r.cfg.OnJoin(peer)
	}
	r.sendJoinReply(peer, admit)
}

// readmitPeer takes an absent or evicted peer back into the game (move) and
// re-opens its bookkeeping: the slotted-buffer slot reopens so subsequent
// writes buffer for it again. The joiner's missed history travels in the
// snapshot, so the slot starts empty.
func (r *Runtime) readmitPeer(peer int) {
	if !r.move(peer, onReadmit, 0) {
		return
	}
	ps := &r.peers[peer]
	r.buf.Readmit(peer)
	// Pre-crash leftovers from the peer's previous life must not leak
	// into its new one.
	r.dropEarly(peer, true)
	ps.lastSync, ps.prevSync = syncRec{}, syncRec{}
	// The peer's new life starts from the join snapshot, not from whatever
	// the delta tables remember of its old one: force full records until
	// fresh acks rebuild the table.
	r.deltaResetPeer(peer)
	// The readmitted peer's vaulted checkpoint is folded into the local
	// store first — a peer that crashed silently (readmitted straight from
	// a join request, never evicted) would otherwise take its last
	// replicated writes to the grave, since the join snapshot is built
	// from the store. The merge is version-gated, so it is a no-op when
	// eviction-time relaying already did this. Then the entry is dropped;
	// the peer's next epoch streams a fresh one.
	if e, ok := r.vaults[peer]; ok && !e.relayed {
		if adopted, _, err := r.st.Merge(e.snap); err == nil && adopted > 0 {
			r.mc.Add(metrics.ReplicaCatchups, 1)
		}
	}
	delete(r.vaults, peer)
}

// sendJoinReply ships the admission ack (tick, epoch, game-over flag,
// member list) followed by a store snapshot floored at the local clock.
func (r *Runtime) sendJoinReply(peer int, admit int64) {
	view := r.View()
	ints := make([]int64, 0, len(view.Members)+2)
	over := int64(0)
	if r.gameOver {
		over = 1
	}
	ints = append(ints, view.Epoch, over)
	for _, p := range view.Members {
		ints = append(ints, int64(p))
	}
	ack := &wire.Msg{Kind: wire.KindJoinAck, Stamp: admit, Ints: ints}
	if sent, _ := r.sendTo(peer, ack, "join ack to"); !sent {
		return
	}
	snap := r.st.Snapshot(r.now)
	r.mc.Add(metrics.SnapshotBytes, len(snap))
	_ = r.send(peer, &wire.Msg{Kind: wire.KindSnapshot, Stamp: r.now, Payload: snap})
	// With checkpoint replication on, the reply also carries every vaulted
	// blob — most importantly the joiner's own pre-crash checkpoint, which
	// restores its committed writes even when every process it ever
	// exchanged with is gone — in ascending origin order.
	for origin := range r.peers {
		e, ok := r.vaults[origin]
		if !ok {
			continue
		}
		r.mc.Add(metrics.SnapshotBytes, len(e.snap))
		_ = r.send(peer, &wire.Msg{Kind: wire.KindCkpt, Stamp: e.stamp, Obj: uint32(origin), Payload: e.snap})
	}
}

// handleJoinAck is the joiner half: record the responder's admission tick,
// schedule the first rendezvous with it, and adopt its epoch. Acks arriving
// outside a Join (stale retransmissions) are dropped — the eviction of a
// non-responder is final, and its own view will evict us back when the
// granted rendezvous times out.
func (r *Runtime) handleJoinAck(peer int, m *wire.Msg) {
	js := r.joining
	if js == nil || r.peers[peer].ended() {
		return
	}
	r.readmitPeer(peer) // the responder is live and a member
	js.admit[peer] = m.Stamp
	r.xl.Set(peer, m.Stamp)
	r.tr.Record(trace.OpAdmit, peer, 0, 0, r.now, m.Stamp)
	if len(m.Ints) > 0 && m.Ints[0] > r.epoch {
		r.epoch = m.Ints[0]
	}
	if len(m.Ints) > 1 && m.Ints[1] == 1 {
		r.gameOver = true
	}
}

// handleSnapshot merges a checkpoint version-gated. Outside a join (a
// duplicate or stale snapshot) the merge is still safe — version gating
// makes it a no-op against equal-or-newer local state.
func (r *Runtime) handleSnapshot(peer int, m *wire.Msg) {
	adopted, _, err := r.st.Merge(m.Payload)
	if err != nil {
		return // corrupt checkpoints are dropped; a retransmission follows
	}
	js := r.joining
	if js == nil || r.peers[peer].ended() {
		return
	}
	if !js.snapped[peer] {
		js.snapped[peer] = true
		r.mc.Add(metrics.CatchupDiffs, adopted)
	}
}
