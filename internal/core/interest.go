package core

// Interest-management support: the grouped SYNC fanout for peers whose
// DATA ExchangeOpts.SendData withheld (ExchangeOpts.GroupWithheldSyncs),
// one shared message (runFrame) per distinct beacon.
// The filter itself lives above the runtime (internal/interest plus the
// protocol layer's gate); core only honors the veto. Interest never
// pulls: a peer entering the sensing radius sends nothing, and the delta
// acked-version tables stay put across the transition, because interest
// withholds flushes but never the SYNC wave that carries delta acks.

import (
	"slices"

	"sdso/internal/wire"
)

// syncGroup is one distinct beacon among a tick's deferred SYNCs and the
// peers it goes to.
type syncGroup struct {
	beacon []int64
	dsts   []int
}

// sendSyncFanout ships the bare SYNC of every deferred (withheld-from)
// peer, group by group. Peers whose beacons are identical — the common
// case: same tank positions, same buffered-modification box — form one
// group and go out back to back, so runFrame hands the whole group one
// shared message. Metrics count one SYNC per destination, and a failed
// send follows the send-error rule exactly as on the per-peer path.
func (r *Runtime) sendSyncFanout(peers []int, opts ExchangeOpts) error {
	if len(peers) == 0 {
		return nil
	}
	// Groups form and ship in first-seen order: peers arrives in runtime
	// peer order, and the virtual network sequences deliveries by send
	// order, so the delivery schedule is deterministic. A tick has a
	// handful of distinct beacons, so a linear probe finds a peer's group.
	groups := r.fanout[:0]
	for _, peer := range peers {
		var beacon []int64
		if opts.Beacon != nil {
			beacon = opts.Beacon(peer)
		}
		g := slices.IndexFunc(groups, func(g syncGroup) bool { return slices.Equal(g.beacon, beacon) })
		if g < 0 {
			g = len(groups)
			if g < cap(groups) {
				groups = groups[:g+1] // reuse the recycled group's dsts backing
			} else {
				groups = append(groups, syncGroup{dsts: make([]int, 0, r.ep.N())})
			}
			groups[g].beacon, groups[g].dsts = beacon, groups[g].dsts[:0]
		}
		groups[g].dsts = append(groups[g].dsts, peer)
	}
	r.fanout = groups
	for _, g := range groups {
		bare := wire.Msg{Kind: wire.KindSync, Stamp: r.now, Ints: g.beacon}
		for _, peer := range g.dsts {
			sent, err := r.sendFrame(peer, bare, nil, r.now, 0, "exchange sync to")
			if err != nil {
				return err
			}
			if sent {
				r.peers[peer].sent(r.now, g.beacon)
			}
		}
	}
	return nil
}
