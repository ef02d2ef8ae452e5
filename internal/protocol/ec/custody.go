// The node's two tables (DESIGN.md §8), guarded by n.mu: where each team
// stands in this node's view, and what this node holds of each base
// manager's shard. Each has one writer, move and shift, which takes a row
// along an edge and does all of the edge's bookkeeping.
package ec

import (
	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/wire"
)

// teamStatus is where a team stands. A crash is news to the application at
// once, to the service when it handles the KindCrash: declared between.
type teamStatus uint8

const (
	live     teamStatus = iota // in the game
	declared                   // crashed, not yet counted out by the service
	done                       // shut down
	crashed                    // crashed and counted out
)

// teamEdge is one event of a team's lifecycle.
type teamEdge uint8

const (
	onCrash    teamEdge = iota // a declaration noted (noteCrash)
	onBury                     // a declaration the service handles (handleCrash)
	onStale                    // onBury carrying an incarnation older than the team's
	onShutdown                 // its SHUTDOWN reached the service
	onReadmit                  // its join request, of a current incarnation (serveJoin)
	onAlive                    // its join ack (acceptJoin)
	onListed                   // a join ack that lists it crashed (acceptJoin)
)

// lifecycle[e][s] is the status edge e takes a team in status s to, in the
// order live, declared, done, crashed. A stale declaration counts out only
// a team already declared: it predates a rejoin and conveys no crash.
var lifecycle = [...][4]teamStatus{
	onCrash:    {declared, declared, crashed, crashed},
	onBury:     {crashed, crashed, crashed, crashed},
	onStale:    {live, crashed, done, crashed},
	onShutdown: {done, crashed, done, crashed},
	onReadmit:  {live, live, live, live},
	onAlive:    {live, live, done, done},
	onListed:   {crashed, declared, crashed, crashed},
}

// life is one row of the team table.
type life struct {
	status teamStatus
	inc    int64 // the highest incarnation seen
}

func (l life) down() bool { return l.status == declared || l.status == crashed } // crashed in this node's view
func (l life) out() bool  { return l.status >= done }                            // counted out by the service

// life returns team t's row; a team out of range is live.
func (n *Node) life(t int) life {
	if t < 0 || t >= n.teams {
		return life{}
	}
	return n.lives[t]
}

// move takes team t along edge e and reports whether its status changed
// (callers hold n.mu); it is the team table's one writer after New. inc is
// what a declaration or join request carries: older than t's incarnation,
// it predates t's rejoin, and is onStale for the service, nothing else. A
// node takes no crash or join of its own team.
func (n *Node) move(t int, e teamEdge, inc int64) bool {
	if t < 0 || t >= n.teams || t == n.team && e != onShutdown {
		return false
	}
	l := &n.lives[t]
	if inc < l.inc && e == onBury {
		e = onStale
	} else if inc < l.inc && (e == onCrash || e == onReadmit) {
		return false
	}
	if e == onReadmit {
		l.inc = inc
	}
	to := lifecycle[e][l.status]
	changed := to != l.status
	l.status = to
	return changed
}

// custody is what this node holds of one base manager's shard.
type custody uint8

const (
	notHeld        custody = iota
	home                   // this node's own shard, managed here
	rejoining              // this node's own shard, in flight back from its adopters
	adopted                // a crashed manager's shard, managed here
	reconstructing         // adopted, its ownership in flight from the quorum group
	reconstructed          // adopted, its ownership rebuilt from the quorum group
	handedBack             // exported to its rejoined manager
	no                     // in custodies: the custody has not got the edge
)

// shardEdge is one event of a shard's custody.
type shardEdge uint8

const (
	onAdopt  shardEdge = iota // this node succeeds the crashed manager (adoptShards, routeLock)
	onRecon                   // a quorum read of its ownership starts (startAdoptRecon)
	onStall                   // lock traffic for it arrives while it is in flight (stall)
	onReply                   // a group member's records arrive (handleQReadAck)
	onAnswer                  // a survivor answers this node's join (acceptJoin)
	onLand                    // all of it is in (land)
	onExport                  // its manager rejoined: what is held here goes back, a quorum read is dropped (serveJoin)
	onReturn                  // its manager is back and nothing goes (serveJoin's repeat, acceptJoin)
)

// custodies[e][c] is the custody edge e takes a shard in custody c to, in
// the order notHeld, home, rejoining, adopted, reconstructing,
// reconstructed, handedBack.
var custodies = [...][7]custody{
	onAdopt:  {adopted, no, no, adopted, reconstructing, reconstructed, adopted},
	onRecon:  {reconstructing, no, no, reconstructing, no, no, reconstructing},
	onStall:  {no, no, rejoining, no, reconstructing, no, no},
	onReply:  {no, no, no, no, reconstructing, no, no},
	onAnswer: {no, home, rejoining, no, no, no, no},
	onLand:   {no, no, home, no, reconstructed, no, no},
	onExport: {handedBack, no, no, handedBack, handedBack, handedBack, handedBack},
	onReturn: {no, no, no, no, no, adopted, no},
}

// shard is one row of the shard table.
type shard struct {
	custody  custody
	stalled  []*wire.Msg  // lock traffic parked while in flight, served when it lands
	recon    *qAdoptState // the quorum read, while reconstructing
	handback []byte       // the last export, for a join request retransmitted
	answers  []answer     // on a rejoining node's own shard: each survivor's answer
}

// answer is one survivor's answer to this node's join: the records it
// handed back, and whether its ack and its checkpoint are in.
type answer struct {
	recs           []lockmgr.Record
	acked, snapped bool
}

// shift takes base's shard along edge e, doing its bookkeeping (callers
// hold n.mu); it is the shard table's one writer after New. m is the frame
// onStall parks, onReply folds in or onAnswer records. ok reports whether
// the edge applied; released is the traffic a landing or an export hands
// back, to serve or forward once n.mu is released.
func (n *Node) shift(base int, e shardEdge, m *wire.Msg) (released []*wire.Msg, ok bool) {
	if base < 0 || base >= n.teams || custodies[e][n.shards[base].custody] == no {
		return nil, false
	}
	s := &n.shards[base]
	switch e {
	case onAdopt:
		n.mgr.Adopt(n.shardOf(base), n.team)
	case onRecon:
		// A crash the service has yet to handle: adopt first, or landing
		// the read restores nothing.
		if s.custody == notHeld || s.custody == handedBack {
			n.mgr.Adopt(n.shardOf(base), n.team)
		}
		s.recon, s.stalled = n.newRecon(base), nil
	case onStall:
		s.stalled = append(s.stalled, m)
	case onReply:
		if !s.recon.fold(m, n.teams) {
			return nil, false
		}
	case onAnswer: // a checkpoint is merged, an ack's records kept
		a := &s.answers[int(m.Src)-n.teams]
		if m.Kind == wire.KindSnapshot {
			merged, _, err := n.st.Merge(m.Payload)
			if err != nil {
				return nil, false
			}
			a.snapped = true
			n.mc.Add(metrics.CatchupDiffs, merged)
			break
		}
		recs, err := lockmgr.DecodeRecords(m.Payload)
		if err != nil {
			return nil, false
		}
		a.recs, a.acked = recs, true
	case onLand:
		if s.custody == rejoining {
			if len(n.unansweredLocked()) > 0 {
				return nil, false
			}
			for _, a := range s.answers {
				if len(a.recs) > 0 {
					n.mgr.Readmit(a.recs)
				}
			}
			n.mgr.Adopt(n.shardOf(n.team), n.team)
		} else {
			if !s.recon.done() {
				return nil, false
			}
			n.restoreOwners(s.recon)
			s.recon = nil
		}
		released, s.stalled = s.stalled, nil
	case onExport:
		s.handback = lockmgr.EncodeRecords(n.mgr.Export(n.shardOf(base)))
		s.recon = nil
		released, s.stalled = s.stalled, nil
	}
	s.custody = custodies[e][s.custody]
	return released, true
}

// shardOf returns the objects whose lock manager statically lives on team.
func (n *Node) shardOf(team int) []store.ID {
	out := make([]store.ID, 0, n.cfg.Game.NumObjects()/n.teams+1)
	for i := 0; i < n.cfg.Game.NumObjects(); i++ {
		if lockmgr.ManagerFor(store.ID(i), n.teams) == team {
			out = append(out, store.ID(i))
		}
	}
	return out
}
