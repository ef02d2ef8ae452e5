// Quorum-replicated lock state: with NodeConfig.QuorumF = f > 0, every
// dirty release commits its ownership record (owner, version) to a majority
// of the object's base manager's quorum group — the 2f+1 services starting
// at the base manager's ID — before the release's unblocked grants go out.
// When the manager crashes, its successor reconstructs the shard's
// ownership from any f+1 group members instead of restarting at version 0,
// so lock grants after failover keep naming the freshest copy: majority
// write and majority read always intersect (the ABD argument, specialized
// to ownership records whose versions the exclusive write lock already
// serializes).
//
// Holder and queue state is deliberately NOT replicated: a grant lost with
// a crashed manager is re-requested by the (live) holder's own
// retransmission machinery, so soft state rebuilds itself; only ownership
// is unrecoverable without replication. This is the paper-adjacent
// relaxation that keeps the steady-state cost to one extra round per dirty
// release.
package ec

import (
	"slices"

	"sdso/internal/lockmgr"
	"sdso/internal/quorum"
	"sdso/internal/store"
	"sdso/internal/wire"
)

// qOwnerRec is one backup's copy of an ownership record.
type qOwnerRec struct {
	owner   int
	version int64
}

// qPending is a replication round awaiting backup acks; the release's
// grants stay deferred until the record is on f+1 group members.
type qPending struct {
	grants []lockmgr.Grant
	needed int
	acked  map[int]bool
	sent   map[int]bool // backups the round targeted (for crash purging)
}

// qAdoptState is an in-progress ownership reconstruction for a dead base
// manager's shard; the shard is in flight (Node.inflight) until it is done.
type qAdoptState struct {
	seq     int64
	needed  int
	replied map[int]bool
	best    map[store.ID]qOwnerRec
}

// qf returns the replication factor (0 = quorum replication off).
func (n *Node) qf() int { return n.cfg.QuorumF }

// qGroup returns the quorum group for an object's base manager: the 2f+1
// teams starting at the base (clamped to the team count).
func (n *Node) qGroup(base int) []int {
	return quorum.Group(base, n.teams, n.qf())
}

// replicateOwner commits a dirty release's ownership record to the
// object's quorum group, deferring grants until f+1 group members hold it
// (the local copy counts when this manager is in the group). With fewer
// than f+1 live group members — more than f crashes, beyond the configured
// budget — the requirement degrades to the live members so the game
// continues, trading durability for progress.
func (n *Node) replicateOwner(obj store.ID, owner int, version int64, grants []lockmgr.Grant) error {
	base := lockmgr.ManagerFor(obj, n.teams)
	group := n.qGroup(base)
	needed := n.qf() + 1
	n.mu.Lock()
	if slices.Contains(group, n.team) {
		n.qrepApply(obj, owner, version)
		needed--
	}
	var targets []int
	for _, t := range group {
		if t != n.team && !n.crashed[t] {
			targets = append(targets, t)
		}
	}
	if needed > len(targets) {
		needed = len(targets)
	}
	n.qseq++
	seq := n.qseq
	if needed > 0 {
		n.qpend[seq] = &qPending{
			grants: slices.Clone(grants), needed: needed, // grants are the manager's scratch
			acked: make(map[int]bool), sent: make(map[int]bool),
		}
		for _, t := range targets {
			n.qpend[seq].sent[t] = true
		}
	}
	n.mu.Unlock()
	n.mc.AddQuorumRound()
	if needed == 0 {
		return n.sendGrants(grants)
	}
	m := wire.Msg{Kind: wire.KindQWrite, Stamp: seq, Obj: uint32(obj), Ints: n.svcInts.Carve(int64(owner), version)}
	for _, t := range targets {
		if _, err := n.sendTo(n.cfg.Svc, n.svcID(t), m, true); err != nil {
			return err
		}
	}
	return nil
}

// qrepApply installs an ownership record in the local backup copy,
// version-gated (callers hold n.mu).
func (n *Node) qrepApply(obj store.ID, owner int, version int64) {
	if cur, ok := n.qrep[obj]; !ok || version > cur.version {
		n.qrep[obj] = qOwnerRec{owner: owner, version: version}
	}
}

// handleQWrite is the backup half of a replication round: store the record
// version-gated and ack with the round's sequence number.
func (n *Node) handleQWrite(m *wire.Msg) error {
	if n.qf() == 0 {
		return nil
	}
	n.mu.Lock()
	n.qrepApply(store.ID(m.Obj), int(m.Ints[0]), m.Ints[1]) // shaped
	n.mu.Unlock()
	_, err := n.sendTo(n.cfg.Svc, int(m.Src), wire.Msg{Kind: wire.KindQWriteAck, Stamp: m.Stamp, Obj: m.Obj}, false)
	return err
}

// handleQWriteAck counts a backup's ack toward its replication round.
func (n *Node) handleQWriteAck(m *wire.Msg) error {
	n.mu.Lock()
	if p := n.qpend[m.Stamp]; p != nil { // nil: a duplicate ack of a completed round
		p.acked[int(m.Src)-n.teams] = true
	}
	n.mu.Unlock()
	return n.completeRounds()
}

// qPurgeDead drops a crashed backup from every pending replication round.
// Without this a backup dying mid-round would defer the release's grants
// forever.
func (n *Node) qPurgeDead(dead int) error {
	if n.qf() == 0 {
		return nil
	}
	n.mu.Lock()
	for _, p := range n.qpend {
		if p.sent[dead] && !p.acked[dead] {
			delete(p.sent, dead)
			p.needed = min(p.needed, len(p.sent))
		}
	}
	n.mu.Unlock()
	return n.completeRounds()
}

// completeRounds releases the deferred grants of every replication round
// that f+1 group members now hold. Every ack and purge calls it, so only
// the rounds they touched can have completed.
func (n *Node) completeRounds() error {
	var ready [][]lockmgr.Grant
	n.mu.Lock()
	for seq, p := range n.qpend {
		if len(p.acked) >= p.needed {
			ready = append(ready, p.grants)
			delete(n.qpend, seq)
		}
	}
	n.mu.Unlock()
	for _, grants := range ready {
		if err := n.sendGrants(grants); err != nil {
			return err
		}
	}
	return nil
}

// startAdoptRecon begins ownership reconstruction for every crashed base
// manager whose shard this node has adopted and not yet reconstructed: a
// quorum read over the dead manager's group. Until f+1 members contribute,
// the shard is in flight and lock traffic for it stalls (see Node.stall) —
// serving from a version-0 shard is exactly the regression replication
// exists to prevent. Idempotent; call after any adoption point.
func (n *Node) startAdoptRecon() error {
	if n.qf() == 0 {
		return nil
	}
	type recon struct {
		dead    int
		seq     int64
		targets []int
	}
	var starts []recon
	n.mu.Lock()
	for dead := 0; dead < n.teams; dead++ {
		if !n.crashed[dead] || n.qAdopt[dead] != nil || n.qAdopted[dead] || n.successor(dead) != n.team {
			continue
		}
		group := n.qGroup(dead)
		needed := n.qf() + 1
		st := &qAdoptState{
			replied: make(map[int]bool),
			best:    make(map[store.ID]qOwnerRec),
		}
		if slices.Contains(group, n.team) {
			st.replied[n.team] = true
			for _, obj := range n.shardOf(dead) {
				if rec, ok := n.qrep[obj]; ok {
					st.best[obj] = rec
				}
			}
		}
		var targets []int
		for _, t := range group {
			if t != n.team && t != dead && !n.crashed[t] {
				targets = append(targets, t)
			}
		}
		if max := len(st.replied) + len(targets); needed > max {
			needed = max // degraded: more than f group members are gone
		}
		st.needed = needed
		n.qseq++
		st.seq = n.qseq
		n.qAdopt[dead] = st
		n.inflight[dead] = nil
		starts = append(starts, recon{dead: dead, seq: st.seq, targets: targets})
	}
	n.mu.Unlock()
	for _, s := range starts {
		n.mc.AddQuorumRound()
		if n.debug() {
			n.tracef("svc %d reconstructs dead mgr %d's shard from quorum (seq %d)", n.team, s.dead, s.seq)
		}
		for _, t := range s.targets {
			m := wire.Msg{Kind: wire.KindQRead, Stamp: s.seq, Obj: uint32(s.dead)}
			if _, err := n.sendTo(n.cfg.Svc, n.svcID(t), m, true); err != nil {
				return err
			}
		}
		// A fully degraded reconstruction (no one left to ask) completes
		// with whatever the local copy knows.
		if err := n.land(s.dead); err != nil {
			return err
		}
	}
	return nil
}

// handleQRead is the backup half of a reconstruction: reply with every
// ownership record held here for the dead team's shard.
func (n *Node) handleQRead(m *wire.Msg) error {
	if n.qf() == 0 {
		return nil
	}
	dead := int(m.Obj)
	if dead < 0 || dead >= n.teams {
		return nil
	}
	var recs []lockmgr.Record
	n.mu.Lock()
	for _, obj := range n.shardOf(dead) {
		if rec, ok := n.qrep[obj]; ok {
			recs = append(recs, lockmgr.Record{Obj: obj, Owner: rec.owner, Version: rec.version})
		}
	}
	n.mu.Unlock()
	ack := wire.Msg{Kind: wire.KindQReadAck, Stamp: m.Stamp, Obj: m.Obj, Payload: lockmgr.EncodeRecords(recs)}
	_, err := n.sendTo(n.cfg.Svc, int(m.Src), ack, false)
	return err
}

// handleQReadAck folds one backup's records into an in-progress
// reconstruction and finishes it at f+1 contributions.
func (n *Node) handleQReadAck(m *wire.Msg) error {
	dead := int(m.Obj)
	recs, err := lockmgr.DecodeRecords(m.Payload)
	if err != nil {
		return nil // corrupt reply; the quorum does not need every member
	}
	n.mu.Lock()
	st := n.qAdopt[dead]
	from := int(m.Src) - n.teams
	if st == nil || st.seq != m.Stamp || st.replied[from] {
		n.mu.Unlock()
		return nil
	}
	st.replied[from] = true
	for _, r := range recs {
		if cur, ok := st.best[r.Obj]; !ok || r.Version > cur.version {
			st.best[r.Obj] = qOwnerRec{owner: r.Owner, version: r.Version}
		}
	}
	n.mu.Unlock()
	return n.land(dead)
}

// reconDone reports whether dead's reconstruction has heard from enough
// group members (callers hold n.mu).
func (n *Node) reconDone(dead int) bool {
	st := n.qAdopt[dead]
	return st != nil && len(st.replied) >= st.needed
}

// restoreOwners completes dead's reconstruction (callers hold n.mu): the
// max-version records are installed in the adopted shard.
func (n *Node) restoreOwners(dead int) {
	st := n.qAdopt[dead]
	delete(n.qAdopt, dead)
	n.qAdopted[dead] = true
	repaired := 0
	for obj, rec := range st.best {
		if n.mgr.RestoreOwner(obj, rec.owner, rec.version) {
			repaired++
		}
	}
	if repaired > 0 {
		n.mc.AddReadRepair()
	}
	n.mc.AddReplicaCatchup()
	if n.debug() {
		n.tracef("svc %d reconstructed mgr %d's shard: %d records repaired", n.team, dead, repaired)
	}
}
