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

// waitSite is what a wait waits for. It decides which frame resolves the
// wait, what a strike resends, and what the strike after MaxRetransmits
// does.
type waitSite uint8

const (
	// grantWait: the grant of obj. A strike resends the request to the
	// manager; the strike after the budget buries the suspect, then fails
	// over to the next live manager or, when the suspect was a holder that
	// KindLockBusy named, goes back to suspecting the manager.
	grantWait waitSite = iota
	// pullWait: the owner's copy of obj. A strike resends the pull; the
	// strike after the budget buries the owner, and the local replica
	// stands in for the lost copy.
	pullWait
	// joinWait: an answer from every other team. A strike resends the join
	// request to whoever has not answered; the strike after the budget
	// buries them and stops.
	joinWait
	// landWait: the rejoining node's own shard landing at its service. Its
	// silences are not strikes, so it polls every t.
	landWait
	// serviceWait: the service's next frame. Its silences are strikes only
	// once its own application has shut down; the strike after the budget
	// exits.
	serviceWait
)

// waiter is one wait in progress.
type waiter struct {
	site waitSite
	ep   transport.Endpoint
	obj  store.ID
	req  wire.Msg // what a strike resends
	peer int      // the team req goes to: the manager, or the owner
	// suspect is the team a grant wait's strikes blame: the manager, or a
	// holder that KindLockBusy named (holder set).
	suspect int
	holder  bool
	idle    bool // the service's application has shut down
	strikes int  // silences since the wait began or changed its target
}

// await is EC's one blocking wait (DESIGN.md §7, "One wait"): it receives on
// w.ep until a frame resolves w and returns that frame, or nil once w needs
// none — every team answered, the pull abandoned, the service idle. With
// SuspectTimeout t each silence of t, 2t, 4t, 8t, 8t, ... is a strike;
// timeout 0 blocks in Recv, so the fail-free path runs the same loop and
// never strikes. A frame that does not resolve w is noted and recycled,
// and so is a malformed one, which resolves nothing.
func (n *Node) await(w *waiter) (*wire.Msg, error) {
	t := n.cfg.SuspectTimeout
	for !n.settled(w) {
		var m *wire.Msg
		var err error
		ok := true
		if t <= 0 {
			m, err = w.ep.Recv()
		} else {
			m, ok, err = w.ep.RecvTimeout(t << min(w.strikes, 3))
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
		return !n.rejoining()
	}
	return false
}

// shaped reports whether m carries the Ints its kind is read with. Over TCP
// a frame is outside input, and a malformed one resolves no wait.
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

// noteFrame consumes a frame that does not resolve w. A grant wait takes a
// KindLockBusy as a hint to blame a holder, and a grant or pull wait whose
// peer has just been buried fails over or gives up.
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

// blame answers a KindLockBusy naming the lock's holders: the manager is
// alive but the lock is held elsewhere, so the first live foreign holder
// becomes the suspect. If every foreign holder named is already buried in
// our view, the manager's copy of the KindCrash broadcast was lost and
// declareCrash won't repeat old news: re-announce the burials to it so it
// purges the phantom holders and grants the queued request.
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
	over := w.strikes > n.maxRetransmits()
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
		// The routing changed beneath us — a crash learned through another
		// exchange, or the base manager rejoined. Re-aim at the current
		// manager before spending the budget on the wrong one.
		w.peer, w.suspect, w.holder = cur, cur, false
	}
	switch {
	case over && w.holder:
		// The manager outlives the holder: its purge on KindCrash will
		// grant us the lock. Resume suspecting the manager.
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

// sendTo sends t from ep to process to under EC's one send-error rule
// (DESIGN.md §7). With crash tolerance on, a peer the transport reports
// gone is not an error: sendTo reports it gone and, if bury is set, buries
// its team. Answers to a peer's request do not bury: whether the requester
// lives is for its own side to find out. Any other error, and every error
// without crash tolerance, is returned.
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
