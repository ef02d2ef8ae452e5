package core

// Interest-management support: the grouped SYNC fanout for peers whose
// DATA ExchangeOpts.SendData withheld (ExchangeOpts.GroupWithheldSyncs).
// The filter itself lives above the runtime (internal/interest plus the
// protocol layer's gate); core only honors the veto. Interest never
// pulls: a peer entering the sensing radius sends nothing, and the delta
// acked-version tables stay put across the transition, because interest
// withholds flushes but never the SYNC wave that carries delta acks.

import (
	"errors"
	"fmt"
	"slices"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

// syncGroup is one distinct beacon among a tick's deferred SYNCs and the
// peers it goes to.
type syncGroup struct {
	beacon []int64
	dsts   []int
}

// sendSyncFanout ships the bare SYNC of every deferred (withheld-from)
// peer. Peers whose beacons are identical — the common case: same tank
// positions, same buffered-modification box — share one frame encode via
// the transport's EncodedSender fast path, so the per-tick cost of the
// global SYNC wave stays one encode plus O(n) writes instead of O(n)
// encodes. Metrics count one logical SYNC per destination either way,
// and a destination that fails with transport.ErrPeerGone is evicted
// exactly as on the per-peer path.
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
				groups = append(groups, syncGroup{})
			}
			groups[g].beacon, groups[g].dsts = beacon, groups[g].dsts[:0]
		}
		groups[g].dsts = append(groups[g].dsts, peer)
	}
	r.fanout = groups
	es, hasES := r.ep.(transport.EncodedSender)
	for _, g := range groups {
		if hasES && len(g.dsts) > 1 {
			// SendEncoded does not take sync — the shared frame is what
			// hits the wire — so the header goes straight back to the pool
			// once the group is served.
			sync := newSync(r.now, g.beacon, 0)
			enc, err := wire.EncodeFrame(sync)
			if err != nil {
				return fmt.Errorf("exchange sync fanout: %w", err)
			}
			size := sync.EncodedSize()
			for _, peer := range g.dsts {
				r.mc.CountSend(sync, size)
				if err := es.SendEncoded(peer, enc, sync); err != nil {
					if errors.Is(err, transport.ErrPeerGone) {
						r.evictPeer(peer)
						continue
					}
					enc.Release()
					return fmt.Errorf("exchange sync to %d: %w", peer, err)
				}
				r.peers[peer].sent(r.now, g.beacon)
			}
			enc.Release()
			wire.PutMsg(sync)
			continue
		}
		for _, peer := range g.dsts {
			if err := r.send(peer, newSync(r.now, g.beacon, 0)); err != nil {
				if errors.Is(err, transport.ErrPeerGone) {
					r.evictPeer(peer)
					continue
				}
				return fmt.Errorf("exchange sync to %d: %w", peer, err)
			}
			r.peers[peer].sent(r.now, g.beacon)
		}
	}
	return nil
}
