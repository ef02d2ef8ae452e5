// The one blocking wait of both EC processes, and the one send-error rule.
package ec

import (
	"errors"
	"fmt"

	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// waitSite is what a wait waits for: which frame resolves it, what a
// strike resends, and what the strike after MaxRetransmits does.
type waitSite uint8

const (
	// grantWait: obj's grant. A strike resends the request; the one after
	// the budget buries the suspect and fails over to the next manager or,
	// for a holder KindLockBusy named, suspects the manager again.
	grantWait waitSite = iota
	// pullWait: the owner's copy of obj. The strike after the budget buries
	// the owner, and the local replica stands in.
	pullWait
	// joinWait: every other team's answer. A strike asks the silent ones
	// again; the one after the budget buries them.
	joinWait
	// landWait: the own shard landing; its silences are not strikes.
	landWait
	// serviceWait: the service's next frame. Once its application has shut
	// down, silences are strikes and the one after the budget exits.
	serviceWait
)

// waiter is one wait in progress.
type waiter struct {
	site    waitSite
	ep      transport.Endpoint
	obj     store.ID
	req     wire.Msg // what a strike resends
	peer    int      // the team req goes to: the manager, or the owner
	suspect int      // whom a grant wait's strikes blame: the manager, or a holder (holder set)
	holder  bool
	idle    bool // the service's application has shut down
	strikes int  // silences since the wait began or changed its target
}

// await is EC's one blocking wait (DESIGN.md §7, "One wait"): it returns
// the frame that resolves w, or nil once w needs none. With SuspectTimeout
// t each silence of transport.SuspectWait (t, 2t, 4t, 8t, 8t, ...) is a
// strike; with none it blocks in Recv and never strikes. Any other frame,
// a malformed one too, is noted and recycled.
func (n *Node) await(w *waiter) (*wire.Msg, error) {
	t := n.cfg.SuspectTimeout
	for !n.settled(w) {
		var m *wire.Msg
		var err error
		ok := true
		if t <= 0 {
			m, err = w.ep.Recv()
		} else {
			m, ok, err = w.ep.RecvTimeout(transport.SuspectWait(t, w.strikes))
		}
		if err != nil {
			return nil, fmt.Errorf("ec %d: wait: %w", n.team, err)
		}
		var done bool
		switch {
		case ok && n.resolves(w, m):
			return m, nil
		case ok:
			done, err = n.noteFrame(w, m)
		default:
			done, err = n.strike(w)
		}
		if done || err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// settled reports whether w is resolved without a frame.
func (n *Node) settled(w *waiter) bool {
	switch w.site {
	case joinWait:
		return len(n.unanswered()) == 0
	case landWait:
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.shards[n.team].custody != rejoining
	}
	return false
}

// shaped reports whether m carries the Ints its kind is read with: over TCP
// a frame is outside input.
func shaped(m *wire.Msg) bool {
	switch m.Kind {
	case wire.KindQWrite:
		return len(m.Ints) >= 2
	case wire.KindObjReply, wire.KindJoinAck:
		return len(m.Ints) >= 1
	}
	return true
}

// resolves reports whether m is the frame w waits for; the policy checks a grant.
func (n *Node) resolves(w *waiter, m *wire.Msg) bool {
	switch w.site {
	case grantWait:
		return m.Kind == wire.KindLockGrant && m.Obj == uint32(w.obj) && n.pol.ValidGrant(m)
	case pullWait:
		return m.Kind == wire.KindObjReply && m.Obj == uint32(w.obj) && shaped(m)
	case serviceWait:
		return shaped(m)
	}
	return false
}

// noteFrame consumes a frame that does not resolve w: a KindLockBusy
// blames a holder, and the burial of w's peer fails over or gives up.
func (n *Node) noteFrame(w *waiter, m *wire.Msg) (done bool, err error) {
	if w.site == serviceWait {
		recycle(w.ep, m)
		return false, nil
	}
	if w.site == grantWait && m.Kind == wire.KindLockBusy && m.Obj == uint32(w.obj) {
		n.blame(w, m.Ints)
	}
	buried := m.Kind == wire.KindCrash && int(m.Stamp) == w.peer
	n.noteAppMsg(m)
	if !buried || !n.isCrashed(w.peer) {
		return false, nil
	}
	switch w.site {
	case grantWait:
		return false, n.failover(w) // someone else buried our manager
	case pullWait:
		return true, nil
	}
	return false, nil
}

// blame answers a KindLockBusy naming the lock's holders: the first live
// one becomes the suspect. If all are buried here, the manager lost our
// KindCrash: it hears the burials again.
func (n *Node) blame(w *waiter, holders []int64) {
	for _, h := range holders {
		if int(h) != n.team && !n.isCrashed(int(h)) {
			w.suspect, w.holder = int(h), true
			return
		}
	}
	for _, h := range holders {
		if int(h) != n.team && n.isCrashed(int(h)) {
			n.reannounceCrash(int(h), w.peer)
		}
	}
}

// strike handles one silence of w.
func (n *Node) strike(w *waiter) (done bool, err error) {
	if w.site == landWait || w.site == serviceWait && !w.idle {
		return false, nil
	}
	w.strikes++
	over := w.strikes > transport.RetransmitBudget(n.cfg.MaxRetransmits)
	switch w.site {
	case serviceWait:
		return over, nil
	case joinWait:
		for _, t := range n.unanswered() {
			if over {
				n.declareCrash(t)
				continue
			}
			if _, err := n.sendTo(w.ep, n.svcID(t), w.req, true); err != nil {
				return false, err
			}
			n.mc.Add(metrics.Retransmits, 1)
		}
		return over, nil
	}
	if w.strikes == 1 {
		n.mc.Add(metrics.Suspects, 1)
	}
	if w.site == pullWait {
		if over {
			n.declareCrash(w.peer)
			return true, nil
		}
		gone, err := n.sendTo(w.ep, n.svcID(w.peer), w.req, true)
		if !gone && err == nil {
			n.mc.Add(metrics.Retransmits, 1)
		}
		return gone, err
	}
	if cur := n.managerFor(w.obj); cur != w.peer {
		// A crash or a rejoin moved the shard: re-aim before striking.
		w.peer, w.suspect, w.holder = cur, cur, false
	}
	switch {
	case over && w.holder:
		// The manager's purge of the holder grants us the lock.
		n.declareCrash(w.suspect)
		w.suspect, w.holder, w.strikes = w.peer, false, 0
		return false, nil
	case over:
		n.declareCrash(w.suspect)
		return false, n.failover(w)
	}
	gone, err := n.sendTo(w.ep, n.svcID(w.peer), w.req, true)
	if gone {
		return false, n.failover(w)
	}
	if err == nil {
		n.mc.Add(metrics.Retransmits, 1)
	}
	return false, err
}

// failover re-aims a grant wait at the manager its object's routing now
// names, and asks it afresh.
func (n *Node) failover(w *waiter) error {
	w.peer = n.managerFor(w.obj)
	w.suspect, w.holder, w.strikes = w.peer, false, 0
	if err := n.send(w.ep, n.svcID(w.peer), w.req); err != nil {
		return fmt.Errorf("ec app %d: failover lock req %d to %d: %w", n.team, w.obj, w.peer, err)
	}
	n.mc.Add(metrics.Retransmits, 1)
	return nil
}

// sendTo sends t under EC's one send-error rule (DESIGN.md §7): with crash
// tolerance, a peer the transport reports gone is reported gone, and
// buried if bury is set (answers do not bury); any other error is returned.
func (n *Node) sendTo(ep transport.Endpoint, to int, t wire.Msg, bury bool) (gone bool, err error) {
	err = n.send(ep, to, t)
	if err == nil {
		return false, nil
	}
	if !n.ft() || !errors.Is(err, transport.ErrPeerGone) {
		return false, fmt.Errorf("ec %d: send %v obj %d to %d: %w", n.team, t.Kind, t.Obj, to, err)
	}
	if bury {
		n.declareCrash(to % n.teams)
	}
	return true, nil
}
