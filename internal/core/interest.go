package core

// Interest-management support: the grouped SYNC fanout for peers whose
// DATA ExchangeOpts.SendData withheld (ExchangeOpts.GroupWithheldSyncs),
// and the hooks a spatial interest layer calls when a peer enters the
// sensing radius. The filter itself lives above the runtime
// (internal/interest plus the protocol layer's gate); core only honors
// the veto and keeps the delta machinery sound across interest
// transitions.

import (
	"errors"
	"fmt"

	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// sendSyncFanout ships the bare SYNC of every deferred (withheld-from)
// peer. Peers whose beacons are identical — the common case: same tank
// positions, same buffered-modification box — share one frame encode via
// the transport's EncodedSender fast path, so the per-tick cost of the
// global SYNC wave stays one encode plus O(n) writes instead of O(n)
// encodes. Metrics count one logical SYNC per destination either way,
// and a destination that fails with transport.ErrPeerGone is evicted
// exactly as on the per-peer path.
func (r *Runtime) sendSyncFanout(peers []int, opts ExchangeOpts, sentSync map[int]*wire.Msg) error {
	if len(peers) == 0 {
		return nil
	}
	groups := make(map[string][]int, 1)
	beacons := make(map[string][]int64, 1)
	// Groups ship in first-seen order: peers arrives in runtime peer
	// order, and the virtual network sequences deliveries by send order,
	// so iterating the group map directly would leak map-iteration
	// nondeterminism into the delivery schedule.
	var order []string
	var keyBuf []byte
	for _, peer := range peers {
		var beacon []int64
		if opts.Beacon != nil {
			beacon = opts.Beacon(peer)
		}
		keyBuf = keyBuf[:0]
		for _, v := range beacon {
			keyBuf = append(keyBuf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		k := string(keyBuf)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
			beacons[k] = beacon
		}
		groups[k] = append(groups[k], peer)
	}
	es, hasES := r.ep.(transport.EncodedSender)
	for _, k := range order {
		dsts := groups[k]
		sync := &wire.Msg{Kind: wire.KindSync, Stamp: r.now, Ints: beacons[k]}
		if hasES && len(dsts) > 1 {
			enc, err := wire.EncodeFrame(sync)
			if err != nil {
				return fmt.Errorf("exchange sync fanout: %w", err)
			}
			size := sync.EncodedSize()
			for _, peer := range dsts {
				r.mc.CountSend(sync, size)
				if err := es.SendEncoded(peer, enc, sync); err != nil {
					if errors.Is(err, transport.ErrPeerGone) {
						r.evictPeer(peer)
						continue
					}
					enc.Release()
					return fmt.Errorf("exchange sync to %d: %w", peer, err)
				}
				// Each peer keeps its own instance for the echo and
				// retransmission machinery; the shared frame above is
				// what actually hit the wire.
				own := sync.Clone()
				sentSync[peer] = own
				r.lastSync[peer] = own
			}
			enc.Release()
			continue
		}
		for _, peer := range dsts {
			m := sync.Clone()
			if err := r.send(peer, m); err != nil {
				if errors.Is(err, transport.ErrPeerGone) {
					r.evictPeer(peer)
					continue
				}
				return fmt.Errorf("exchange sync to %d: %w", peer, err)
			}
			sentSync[peer] = m
			r.lastSync[peer] = m
		}
	}
	return nil
}

// InterestEnter tells the runtime that peer just (re)entered the local
// sensing radius after a filtered stretch. The delta acked-version
// tables deliberately stay put: interest only withholds flushes, never
// the SYNC wave that carries delta acks, so the sender tip for peer is
// still exactly what peer's receive shadow holds and the next delta
// against it remains decodable. (Resetting the sender half would make
// the next payload a delta against the registered initial state, which
// the peer's shadow has long since left behind — a guaranteed
// fingerprint mismatch.) What does reset is the fetch dedup entry for
// peer, so the enter-radius fetch is never suppressed by a stale
// outstanding-request mark from a previous encounter.
func (r *Runtime) InterestEnter(peer int) {
	if r.deltaFetch != nil {
		delete(r.deltaFetch, peer)
	}
}

// InterestFetch issues on-demand full-record fetches for objs from peer,
// the pull half of an enter-radius event: updates withheld while the
// peer was out of interest are recovered immediately instead of waiting
// for its next flush. It reuses the delta recovery path (AsyncGet with
// at most one outstanding request per peer/object pair); replies adopt
// version-gated and realign the delta shadow. Peers that are crashed,
// done, or not yet admitted are skipped.
func (r *Runtime) InterestFetch(peer int, objs []store.ID) {
	if r.peerCrashed[peer] || r.peerDone[peer] || r.peerAbsent[peer] {
		return
	}
	for _, obj := range objs {
		if r.deltaFetch[peer] != nil && r.deltaFetch[peer][obj] {
			continue
		}
		r.mc.AddInterestFetch()
		r.deltaRequestRecovery(peer, obj)
	}
}
