// Replicated checkpoints (Config.CheckpointEvery): streaming, vaulting, and
// the merge-and-relay that outlives an evicted origin.
package core

import (
	"sdso/internal/metrics"
	"sdso/internal/wire"
)

// vaultEntry is one replicated checkpoint: an origin's store snapshot at
// its clock stamp, and whether it was already merged-and-relayed after the
// origin's eviction.
type vaultEntry struct {
	stamp   int64
	snap    []byte
	relayed bool
}

// streamCheckpoint is the tick's last stage at an epoch boundary: it
// snapshots the local store and streams the blob to the first CheckpointF+1
// live peers in ring order: any f failures leave at least one copy outside
// the crash set, so the local process's committed writes survive even if
// every peer that exchanged with it is gone too.
func (r *Runtime) streamCheckpoint() {
	snap := r.st.Snapshot(r.now)
	if len(snap) == 0 {
		return
	}
	self, n := r.ep.ID(), r.ep.N()
	want := r.cfg.CheckpointF + 1
	copies := 0
	r.mc.Add(metrics.QuorumRounds, 1)
	for d := 1; d < n && copies < want; d++ {
		peer := (self + d) % n
		if r.peers[peer].gone() {
			continue
		}
		m := &wire.Msg{Kind: wire.KindCkpt, Stamp: r.now, Obj: uint32(self), Payload: snap}
		if sent, err := r.sendTo(peer, m, "checkpoint to"); err != nil {
			return // best-effort: a lost checkpoint only weakens this epoch's copy count
		} else if sent {
			r.mc.Add(metrics.SnapshotBytes, len(snap))
			copies++
		}
	}
	if copies > 0 {
		r.flush()
	}
}

// handleCkpt vaults a replicated checkpoint. Each origin keeps only its
// freshest blob; a blob for an already-crashed origin (or, after a restart,
// for the local process itself) is merged into the live store immediately —
// that is the recovery path the stream exists for.
func (r *Runtime) handleCkpt(m *wire.Msg) {
	origin := int(m.Obj)
	if r.vaults == nil || origin >= len(r.peers) {
		return // replication not enabled here, or no such origin; drop
	}
	if origin == r.ep.ID() {
		// Our own pre-crash state coming back after a restart.
		if adopted, _, err := r.st.Merge(m.Payload); err == nil && adopted > 0 {
			r.mc.Add(metrics.ReplicaCatchups, 1)
		}
		return
	}
	if e, ok := r.vaults[origin]; ok && e.stamp >= m.Stamp {
		return
	}
	r.vaults[origin] = vaultEntry{stamp: m.Stamp, snap: m.Payload}
	if r.peers[origin].is(crashed) {
		// The origin is already gone: fold its writes in right away.
		r.relayVault(origin)
	}
}

// relayVault merges an evicted origin's vaulted checkpoint into the local
// store and relays the blob to every live peer, so the crashed process's
// committed writes propagate even to peers outside its checkpoint set (and
// outside its exchange range, under spatial withholding). Idempotent per
// (origin, blob); best-effort on the wire.
func (r *Runtime) relayVault(origin int) {
	e, ok := r.vaults[origin]
	if !ok || e.relayed {
		return
	}
	e.relayed = true
	r.vaults[origin] = e
	if _, _, err := r.st.Merge(e.snap); err != nil {
		return
	}
	r.mc.Add(metrics.ReplicaCatchups, 1)
	copies := 0
	for peer := range r.peers {
		if peer == r.ep.ID() || r.peers[peer].gone() {
			continue
		}
		m := &wire.Msg{Kind: wire.KindCkpt, Stamp: e.stamp, Obj: uint32(origin), Payload: e.snap}
		if sent, _ := r.sendTo(peer, m, "relay checkpoint to"); sent {
			r.mc.Add(metrics.SnapshotBytes, len(e.snap))
			copies++
		}
	}
	if copies > 0 {
		r.flush()
	}
}
