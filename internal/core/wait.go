// Failure detection: the one blocking wait — under a rendezvous, a
// SyncGet/SyncPut reply and a Join — and eviction.
package core

import (
	"fmt"
	"slices"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// settle stops awaitRendezvous waiting on peer: its SYNC arrived, or it left
// the game (move).
func (r *Runtime) settle(ps *peerState) {
	if ps.waitTick == r.now {
		ps.waitTick = 0
		r.outstanding--
	}
}

// waiter is what differs between the waits of a rendezvous, a
// SyncGet/SyncPut reply and a Join.
type waiter struct {
	peers   []int                        // who may be awaited, in eviction order
	pending func(peer int) bool          // peer is still awaited
	resend  func(peer int) (bool, error) // retransmits to peer; false: nothing went out
	timeout time.Duration                // zero or less: block without suspicion
	// rendezvous is dispatch's mode (r.outstanding counts its pending);
	// suspect counts the pending at the first silence; goneFirst evicts the
	// peers the transport reports gone before the budget check.
	rendezvous, suspect, goneFirst bool
}

// waiting reports whether w still awaits anyone.
func (r *Runtime) waiting(w *waiter) bool {
	if w.rendezvous {
		return r.outstanding > 0
	}
	return slices.ContainsFunc(w.peers, w.pending)
}

// await is the one blocking wait (DESIGN.md §7, "One wait"): it receives
// and dispatches until w awaits no one. With a timeout, each silence of
// transport.SuspectWait (t, 2t, 4t, 8t, 8t, ...) is a strike: a pending
// peer the transport reports gone is evicted, as resending into a dead
// link cannot help; the strike after MaxRetransmits evicts every pending
// peer, else each gets w.resend.
// It reports whether a strike evicted anyone.
func (r *Runtime) await(w *waiter) (evicted bool, err error) {
	strikes, budget := 0, transport.RetransmitBudget(r.cfg.MaxRetransmits)
	for r.waiting(w) {
		var m *wire.Msg
		ok := true
		if w.timeout <= 0 {
			m, err = r.ep.Recv()
		} else {
			m, ok, err = r.ep.RecvTimeout(transport.SuspectWait(w.timeout, strikes))
		}
		if err != nil {
			return evicted, fmt.Errorf("recv: %w", err)
		}
		if ok {
			r.dispatch(m, w.rendezvous)
			r.flush() // dispatch may have answered (echo, object serve)
			continue
		}
		strikes++
		for _, peer := range w.peers {
			if w.suspect && strikes == 1 && w.pending(peer) {
				r.mc.Add(metrics.Suspects, 1)
			}
		}
		for _, peer := range w.peers {
			if w.goneFirst && w.pending(peer) && transport.PeerGone(r.ep, peer) {
				r.evictPeer(peer)
				evicted = true
			}
		}
		if strikes > budget {
			for _, peer := range w.peers {
				if w.pending(peer) {
					r.evictPeer(peer)
				}
			}
			return true, nil
		}
		for _, peer := range w.peers {
			if !w.pending(peer) {
				continue
			}
			if !w.goneFirst && transport.PeerGone(r.ep, peer) {
				r.evictPeer(peer)
				evicted = true
				continue
			}
			sent, err := w.resend(peer)
			if err != nil {
				return evicted, err
			}
			if sent {
				r.mc.Add(metrics.Retransmits, 1)
			}
		}
		r.flush()
	}
	return evicted, nil
}

// evictPeer declares peer crashed, which leaves it out of the game as a DONE
// does (move) but is counted in metrics. A future rejoin negotiates a fresh
// admission and starts from full delta records.
func (r *Runtime) evictPeer(peer int) {
	if peer == r.ep.ID() || !r.move(peer, onEvict, 0) {
		return
	}
	delete(r.grants, peer)
	r.mc.Add(metrics.Evictions, 1)
	r.deltaResetPeer(peer)
	// With checkpoint replication on, an eviction is the moment the vault
	// pays off: fold the evictee's last replicated snapshot into the live
	// store and relay it so its committed writes outlive the crash.
	r.relayVault(peer)
}
