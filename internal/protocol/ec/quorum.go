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
	"errors"
	"fmt"
	"slices"

	"sdso/internal/lockmgr"
	"sdso/internal/quorum"
	"sdso/internal/store"
	"sdso/internal/transport"
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
	obj    store.ID
	grants []lockmgr.Grant
	needed int
	acked  map[int]bool
	sent   map[int]bool // backups the round targeted (for crash purging)
}

// qAdoptState is an in-progress ownership reconstruction for a dead base
// manager's shard.
type qAdoptState struct {
	seq     int64
	needed  int
	replied map[int]bool
	best    map[store.ID]qOwnerRec
	stalled []*wire.Msg
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
			obj: obj, grants: slices.Clone(grants), needed: needed, // grants are the manager's scratch
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
		if err := n.send(n.cfg.Svc, n.svcID(t), m); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				n.declareCrash(t)
				continue
			}
			return fmt.Errorf("ec service %d: replicate obj %d to %d: %w", n.team, obj, t, err)
		}
	}
	return nil
}

// qrepApply installs an ownership record in the local backup copy,
// version-gated (callers hold n.mu).
func (n *Node) qrepApply(obj store.ID, owner int, version int64) bool {
	if cur, ok := n.qrep[obj]; ok && version <= cur.version {
		return false
	}
	n.qrep[obj] = qOwnerRec{owner: owner, version: version}
	return true
}

// handleQWrite is the backup half of a replication round: store the record
// version-gated and ack with the round's sequence number.
func (n *Node) handleQWrite(m *wire.Msg) error {
	if n.qf() == 0 || len(m.Ints) < 2 {
		return nil
	}
	n.mu.Lock()
	n.qrepApply(store.ID(m.Obj), int(m.Ints[0]), m.Ints[1])
	n.mu.Unlock()
	ack := wire.Msg{Kind: wire.KindQWriteAck, Stamp: m.Stamp, Obj: m.Obj}
	if err := n.send(n.cfg.Svc, int(m.Src), ack); err != nil && !errors.Is(err, transport.ErrPeerGone) {
		return fmt.Errorf("ec service %d: qwrite ack: %w", n.team, err)
	}
	return nil
}

// handleQWriteAck completes a replication round when f+1 group members hold
// the record, releasing the deferred grants.
func (n *Node) handleQWriteAck(m *wire.Msg) error {
	n.mu.Lock()
	p := n.qpend[m.Stamp]
	if p == nil {
		n.mu.Unlock()
		return nil // duplicate ack of a completed round
	}
	from := int(m.Src) - n.teams
	if p.acked[from] {
		n.mu.Unlock()
		return nil
	}
	p.acked[from] = true
	done := len(p.acked) >= p.needed
	var grants []lockmgr.Grant
	if done {
		grants = p.grants
		delete(n.qpend, m.Stamp)
	}
	n.mu.Unlock()
	if done {
		return n.sendGrants(grants)
	}
	return nil
}

// qPurgeDead drops a crashed backup from every pending replication round,
// completing rounds its ack was the last obstacle for. Without this a
// backup dying mid-round would defer the release's grants forever.
func (n *Node) qPurgeDead(dead int) error {
	if n.qf() == 0 {
		return nil
	}
	var ready [][]lockmgr.Grant
	n.mu.Lock()
	for seq, p := range n.qpend {
		if !p.sent[dead] || p.acked[dead] {
			continue
		}
		delete(p.sent, dead)
		if p.needed > len(p.sent) {
			p.needed = len(p.sent)
		}
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
// lock traffic for those objects stalls (see stallForAdopt) — serving from
// a version-0 shard is exactly the regression replication exists to
// prevent. Idempotent; call after any adoption point.
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
		if !n.crashed[dead] || n.qAdopt[dead] != nil || n.qAdopted[dead] {
			continue
		}
		succ := -1
		for i := 1; i <= n.teams; i++ {
			t := (dead + i) % n.teams
			if !n.crashed[t] {
				succ = t
				break
			}
		}
		if succ != n.team {
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
			if err := n.send(n.cfg.Svc, n.svcID(t), m); err != nil {
				if errors.Is(err, transport.ErrPeerGone) {
					n.declareCrash(t)
					continue
				}
				return fmt.Errorf("ec service %d: qread to %d: %w", n.team, t, err)
			}
		}
		// A fully degraded reconstruction (no one left to ask) completes
		// with whatever the local copy knows.
		if err := n.finishAdoptRecon(s.dead); err != nil {
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
	ack := wire.Msg{
		Kind: wire.KindQReadAck, Stamp: m.Stamp, Obj: m.Obj,
		Payload: lockmgr.EncodeRecords(recs),
	}
	if err := n.send(n.cfg.Svc, int(m.Src), ack); err != nil && !errors.Is(err, transport.ErrPeerGone) {
		return fmt.Errorf("ec service %d: qread ack: %w", n.team, err)
	}
	return nil
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
	return n.finishAdoptRecon(dead)
}

// finishAdoptRecon completes a reconstruction once enough group members
// have contributed: install the max-version records in the adopted shard,
// then replay the lock traffic that stalled behind it.
func (n *Node) finishAdoptRecon(dead int) error {
	n.mu.Lock()
	st := n.qAdopt[dead]
	if st == nil || len(st.replied) < st.needed {
		n.mu.Unlock()
		return nil
	}
	delete(n.qAdopt, dead)
	n.qAdopted[dead] = true
	repaired := 0
	for obj, rec := range st.best {
		if n.mgr.RestoreOwner(obj, rec.owner, rec.version) {
			repaired++
		}
	}
	stalled := st.stalled
	n.mu.Unlock()
	if repaired > 0 {
		n.mc.AddReadRepair()
	}
	n.mc.AddReplicaCatchup()
	if n.debug() {
		n.tracef("svc %d reconstructed mgr %d's shard: %d records repaired, %d stalled msgs",
			n.team, dead, repaired, len(stalled))
	}
	return n.replay(stalled)
}

// stallForAdopt parks a lock request or release whose object's ownership is
// still being reconstructed; reports whether the message was stalled.
func (n *Node) stallForAdopt(m *wire.Msg) bool {
	if n.qf() == 0 {
		return false
	}
	base := lockmgr.ManagerFor(store.ID(m.Obj), n.teams)
	n.mu.Lock()
	defer n.mu.Unlock()
	if st := n.qAdopt[base]; st != nil {
		st.stalled = append(st.stalled, m)
		return true
	}
	return false
}
