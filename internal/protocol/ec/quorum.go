// Quorum-replicated lock state: with NodeConfig.QuorumF = f > 0, a dirty
// release's ownership record (owner, version) reaches f+1 of its base
// manager's quorum group, the 2f+1 services from the base up, before its
// grants go out, and a crashed manager's successor rebuilds the shard's
// ownership from any f+1 of them: majority write and majority read
// intersect (ABD, for records whose versions the write lock serializes).
// Holders and queues are not replicated: a live holder re-requests a grant
// lost with a manager, so one extra round per dirty release is the cost.
package ec

import (
	"slices"

	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/quorum"
	"sdso/internal/store"
	"sdso/internal/wire"
)

// qOwnerRec is one backup's copy of an ownership record.
type qOwnerRec struct {
	owner   int
	version int64
}

// qPending is a replication round awaiting acks, with the grants it defers.
type qPending struct {
	grants []lockmgr.Grant
	needed int
	acked  map[int]bool
	sent   map[int]bool // backups the round targeted (for crash purging)
}

// qAdoptState is the quorum read of a crashed manager's ownership.
type qAdoptState struct {
	seq     int64
	needed  int
	targets []int // the group members asked
	replied map[int]bool
	best    map[store.ID]qOwnerRec
}

// qf returns the replication factor (0 = quorum replication off).
func (n *Node) qf() int { return n.cfg.QuorumF }

// qGroup returns base's quorum group.
func (n *Node) qGroup(base int) []int { return quorum.Group(base, n.teams, n.qf()) }

// replicateOwner commits a dirty release's ownership record to the
// object's quorum group, deferring grants until f+1 members hold it (the
// local copy counts). With fewer live members, beyond the configured
// budget, it settles for them: progress over durability.
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
		if t != n.team && !n.lives[t].down() {
			targets = append(targets, t)
		}
	}
	needed = min(needed, len(targets))
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
	n.mc.Add(metrics.QuorumRounds, 1)
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

// qrepApply keeps an ownership record, version-gated (callers hold n.mu).
func (n *Node) qrepApply(obj store.ID, owner int, version int64) {
	if cur, ok := n.qrep[obj]; !ok || version > cur.version {
		n.qrep[obj] = qOwnerRec{owner: owner, version: version}
	}
}

// handleQWrite is the backup half of a round: keep the record and ack.
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

// qPurgeDead drops a crashed backup from every pending round, which would
// otherwise defer its grants forever.
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

// completeRounds sends the grants of every round f+1 members now hold.
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

// startAdoptRecon starts a quorum read of every crashed manager's
// ownership this node succeeds to and has not rebuilt; its traffic stalls
// until f+1 members have answered (Node.stall). Idempotent.
func (n *Node) startAdoptRecon() error {
	if n.qf() == 0 {
		return nil
	}
	var starts []int
	var recons []*qAdoptState
	n.mu.Lock()
	for dead := range n.teams {
		if !n.lives[dead].down() || n.successor(dead) != n.team {
			continue
		}
		if _, ok := n.shift(dead, onRecon, nil); ok {
			starts, recons = append(starts, dead), append(recons, n.shards[dead].recon)
		}
	}
	n.mu.Unlock()
	for i, dead := range starts {
		n.mc.Add(metrics.QuorumRounds, 1)
		for _, t := range recons[i].targets {
			m := wire.Msg{Kind: wire.KindQRead, Stamp: recons[i].seq, Obj: uint32(dead)}
			if _, err := n.sendTo(n.cfg.Svc, n.svcID(t), m, true); err != nil {
				return err
			}
		}
		// With no one left to ask, the local copy is all there is.
		if err := n.land(dead); err != nil {
			return err
		}
	}
	return nil
}

// newRecon starts the quorum read of dead's ownership (callers hold n.mu):
// the local copy counts, and every other live member is asked.
func (n *Node) newRecon(dead int) *qAdoptState {
	group := n.qGroup(dead)
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
	for _, t := range group {
		if t != n.team && t != dead && !n.lives[t].down() {
			st.targets = append(st.targets, t)
		}
	}
	// Degraded: more than f group members are gone.
	st.needed = min(n.qf()+1, len(st.replied)+len(st.targets))
	n.qseq++
	st.seq = n.qseq
	return st
}

// handleQRead is the backup half of a read: reply with the records held.
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

// handleQReadAck folds a member's records in, and lands at f+1.
func (n *Node) handleQReadAck(m *wire.Msg) error {
	dead := int(m.Obj)
	n.mu.Lock()
	_, ok := n.shift(dead, onReply, m)
	n.mu.Unlock()
	if !ok {
		return nil
	}
	return n.land(dead)
}

// fold takes in a member's reply; one to another round, a repeat or a
// corrupt one changes nothing.
func (st *qAdoptState) fold(m *wire.Msg, teams int) bool {
	from := int(m.Src) - teams
	if st.seq != m.Stamp || st.replied[from] {
		return false
	}
	recs, err := lockmgr.DecodeRecords(m.Payload)
	if err != nil {
		return false
	}
	st.replied[from] = true
	for _, r := range recs {
		if cur, ok := st.best[r.Obj]; !ok || r.Version > cur.version {
			st.best[r.Obj] = qOwnerRec{owner: r.Owner, version: r.Version}
		}
	}
	return true
}

// done reports whether enough group members have contributed.
func (st *qAdoptState) done() bool { return len(st.replied) >= st.needed }

// restoreOwners installs a read's freshest records (callers hold n.mu).
func (n *Node) restoreOwners(st *qAdoptState) {
	repaired := 0
	for obj, rec := range st.best {
		if n.mgr.RestoreOwner(obj, rec.owner, rec.version) {
			repaired++
		}
	}
	if repaired > 0 {
		n.mc.Add(metrics.ReadRepairs, 1)
	}
	n.mc.Add(metrics.ReplicaCatchups, 1)
}
