package lookahead

import (
	"sdso/internal/game"
	"sdso/internal/metrics"
)

// gate is the spatial data filter handed to every exchange() as the
// paper's SendData argument (§3.1–3.2): it decides whether this
// rendezvous with peer carries the modifications buffered for it. It is
// the only place a withhold is decided, so the flush backstops that keep
// a tank's neighbourhood consistent exist once and sit ahead of every
// reason to withhold.
//
// The terms run in a fixed order, each exit final:
//
//  1. Nothing known about the peer: send. Safety degrades to flushing,
//     never to silence.
//  2. Flush backstops: send. Old withheld writes are a static region (the
//     box) the peer closes on at one block per tick from its last-known
//     position; recent ones cluster around our own moving tanks, so the
//     peer being reachable to our tanks' neighbourhood while anything is
//     buffered also forces a flush.
//  3. The protocol's own term (BSYNC none; MSYNC row/column alignment;
//     MSYNC2 alignment and range) fails: withhold.
//  4. The peer advertises no tanks (about to announce DONE): send. This
//     sits after (3) because MSYNC's alignment over an empty tank list
//     already withholds, and before (5)–(6) because neither set nor
//     residency means anything for a peer with no position.
//  5. Interest on and the peer is outside the hysteretic set: withhold.
//  6. Shards on and no region is within reach of both neighbourhoods
//     (the peer's reach slack-extended by how far its tanks may have
//     drifted since the beacon, like the backstops): count a shard veto
//     and withhold.
//
// The order is load-bearing, not a speed choice: the golden gate matrix
// (internal/harness) pins message counts, bytes, virtual time and shard
// vetoes against it, and residency last is what keeps shard_vetoes
// meaning "withheld by residency alone" — interest already excludes
// nearly every peer residency would.
func (p *player) gate(peer int) bool {
	kp := &p.known[peer]
	if !kp.present {
		return true
	}
	h := p.cfg.Game.InteractionRadius()
	staleness := int(p.rt.Now() - kp.tick)
	theirs := kp.beacon.Tanks
	myBox := p.pendingBox(peer)
	if game.BoxApproach(theirs, myBox, h, staleness+3) {
		return true
	}
	mine := p.positions()
	if myBox != nil && game.WithinRange(mine, theirs, h, staleness+4) {
		return true
	}
	switch p.cfg.Protocol {
	case MSYNC:
		if !game.AlignmentPossible(mine, theirs, staleness+1) {
			return false
		}
	case MSYNC2:
		if !game.AlignmentPossible(mine, theirs, staleness+1) || !game.WithinRange(mine, theirs, h, staleness+1) {
			return false
		}
	}
	if len(theirs) == 0 {
		return true
	}
	if p.ix != nil && !p.ix.Contains(peer) {
		return false
	}
	if p.shards != nil && !p.shards.Overlaps(mine, h, theirs, h+staleness+4) {
		p.mc.Add(metrics.ShardVetoes, 1)
		return false
	}
	return true
}
