// Delta-encoded exchanges: when Config.DeltaEncode is on, DATA payloads use
// the delta-capable record encoding (xlist.EncodeDeltaRecords) and each
// record may be an XOR delta against the last state of that object the
// destination provably consumed, instead of a full replacement diff.
//
// The machinery is a per-peer acked-version table fed by the existing SYNC
// traffic. For every peer the sender tracks, per object:
//
//   - tip: the state after the last record flushed to that peer (no entry
//     means the registered initial state — both sides share it, so even a
//     first record can be a delta);
//   - stamp: the stamp of the last record flushed to that peer. A consumed
//     SYNC from the peer stamped s proves the peer completed every mutual
//     rendezvous before s, and therefore (FIFO channels) consumed every
//     record stamped below s; stamps only grow, so the object has a record
//     still unproven exactly when stamp is not below the highest such s.
//
// A record for an object is delta-encoded only when the object has no
// unproven record (the ack table is current — on any ack gap the sender
// falls back to a full record) and the delta is actually smaller. Each
// delta carries the base's version and 32-bit fingerprint; the receiver
// keeps a per-sender shadow of the sender's last-sent states and verifies
// both before applying, so a diverged base — a frame lost with a
// session reset — is detected, counted, and recovered from
// (an AsyncGet refetches the full state and realigns both tables) rather
// than silently patched into garbage.
package core

import (
	"cmp"
	"slices"

	"sdso/internal/diff"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// deltaEntry is what one half of the acked-version table holds for one
// (peer, object): on the sender half the tip — the state after the last
// record flushed to the peer — and that record's stamp; on the receiver
// half the shadow of the peer's last-sent state. state is a
// published slice shared with whoever else holds that state (the buffered
// replacement it came from, the store): it is replaced, never modified.
// Entries are carved from the runtime's slab (deltaStorage) and never move.
type deltaEntry struct {
	obj store.ID
	// known is set once state and ver are valid; until then the entry
	// stands for the registered initial state at version 0.
	known bool
	// bad (receiver) marks a shadow that is unknown — a rejected delta, a
	// diff that would not apply; deltas are refused until a full
	// replacement record or a recovery reply restores it.
	bad bool
	// stamp is, on the sender half, the stamp of the last record flushed to
	// the peer, zero when none was (or a served reply superseded it); on the
	// receiver half, the tick of the outstanding recovery fetch, zero when
	// none is.
	stamp int64
	ver   int64
	state []byte
}

// deltaTable is one half of the acked-version table for one peer: entries
// for the objects actually exchanged with that peer, sorted by object ID.
// It is sparse and starts empty — a dense peer × object table would cost
// hundreds of megabytes at n = 128 (DESIGN.md, "Ownership and memory").
// entries is a block of pointers from the runtime's pool
// (deltaStorage.tables): it moves to the next size class when full and goes
// back on reset, so the tables of one runtime share what any of them
// outgrew, and growing one copies 8 bytes an entry.
type deltaTable struct {
	entries []*deltaEntry
}

// deltaStorage is the storage under a runtime's delta tables (DESIGN.md
// §15, the bookkeeping rule): entries from one slab, tables from one block
// pool.
type deltaStorage struct {
	entries xlist.Slab[deltaEntry]
	tables  xlist.Blocks[deltaEntry]
}

// at returns obj's entry, inserting an unknown one on first use. The
// pointer is valid until the table's reset.
func (t *deltaTable) at(s *deltaStorage, obj store.ID) *deltaEntry {
	i, ok := slices.BinarySearchFunc(t.entries, obj, func(e *deltaEntry, obj store.ID) int {
		return cmp.Compare(e.obj, obj)
	})
	if !ok {
		e := s.entries.New()
		e.obj = obj
		t.entries = s.tables.Insert(t.entries, i, e)
	}
	return t.entries[i]
}

// reset empties t, handing its entries and its block back to s, cleared: a
// freed entry pins no state bytes.
func (t *deltaTable) reset(s *deltaStorage) {
	for _, e := range t.entries {
		s.entries.Free(e)
	}
	s.tables.Put(t.entries)
	t.entries = nil
}

// deltaSendState is the sender half of the acked-version table for one peer.
type deltaSendState struct {
	deltaTable
	// acked is the highest stamp of a consumed SYNC from the peer: every
	// record stamped below it is proven consumed.
	acked int64
}

// reset empties ds, as reset does a table, and forgets its acks.
func (ds *deltaSendState) reset(s *deltaStorage) {
	ds.deltaTable.reset(s)
	ds.acked = 0
}

// unproven reports whether a record flushed for e's object may not have
// been consumed by the peer yet.
func (ds *deltaSendState) unproven(e *deltaEntry) bool {
	return e.stamp != 0 && e.stamp >= ds.acked
}

// deltaBase returns the state and version e stands for: its own once known,
// before that the registered initial state at version 0 — the universal base
// both sides share before any record flows — which is nil for an object that
// was never Shared (restored from a snapshot).
func (r *Runtime) deltaBase(e *deltaEntry) ([]byte, int64) {
	if e.known {
		return e.state, e.ver
	}
	return r.st.Initial(e.obj), 0
}

// encodeDataPayload builds the payload for a DATA frame carrying diffs to
// peer, stamped stamp. With DeltaEncode off it is exactly the PR4 encoding
// (and returns mode 0, leaving frames byte-identical); with it on, each
// record is delta-encoded when the table permits and the result is smaller,
// and the returned mode bit marks the payload for the receiver. Records,
// XOR bytes and the encoding are assembled in per-runtime scratch, and the
// returned payload is that scratch, valid until the next encode: runFrame
// compares it with the frame a run of peers shares and copies it once into
// an outgoing message only when it differs (a pooled struct's inline
// buffer holds a small payload, a larger one is allocated once). Encoding
// straight into a message would regrow its buffer several times over.
func (r *Runtime) encodeDataPayload(peer int, diffs []xlist.ObjDiff, stamp int64) ([]byte, uint8) {
	if !r.cfg.DeltaEncode {
		r.encBuf = xlist.AppendDiffs(r.encBuf[:0], diffs)
		return r.encBuf, 0
	}
	ds := &r.peers[peer].send
	recs, xor := slices.Grow(r.encRecs[:0], len(diffs)), r.encXOR[:0]
	for _, od := range diffs {
		rec := xlist.DeltaRecord{Obj: od.Obj, Version: od.Version, D: od.D}
		e := ds.at(&r.deltaPool, od.Obj)
		base, baseVer := r.deltaBase(e)
		// The tip after this record. Write buffers whole-state
		// replacements, whose state the tip shares.
		next, ok := od.D.Replacement()
		if !ok {
			var err error
			if next, err = diff.ApplyTo(r.st.Alloc(len(base)), base, od.D); err != nil {
				// The diff does not apply over our record of the peer's
				// state. Ship the full record and resynchronize the tip
				// from the local store.
				if cur, gerr := r.st.View(od.Obj); gerr == nil {
					next = cur
				} else {
					next = base
				}
			}
		}
		if !ds.unproven(e) && len(base) == len(next) {
			mark := len(xor)
			xor, _ = diff.AppendXOR(xor, base, next) // lengths match: cannot fail
			if full := diff.EncodedSize(od.D); len(xor)-mark < full {
				rec.Delta = true
				rec.D = diff.Diff{}
				rec.BaseVer = baseVer
				rec.BaseHash = diff.Fingerprint(base)
				rec.X = xor[mark:]
				r.mc.Add(metrics.DeltaRecords, 1)
				r.mc.Add(metrics.DeltaBytesSaved, full-len(rec.X))
			} else {
				xor = xor[:mark]
			}
		}
		e.state, e.ver, e.known, e.stamp = next, od.Version, true, stamp
		recs = append(recs, rec)
	}
	r.encBuf = xlist.AppendDeltaRecords(r.encBuf[:0], recs)
	clear(recs) // the scratch must not pin the diffs it carried
	r.encRecs, r.encXOR = recs, xor
	return r.encBuf, wire.ModeDeltaPayload
}

// deltaAck feeds a consumed SYNC from peer stamped stamp into the ack
// table: every record stamped strictly below stamp is proven consumed (the
// peer cannot emit a SYNC for tick s before completing the rendezvous that
// consumed them).
func (r *Runtime) deltaAck(peer int, stamp int64) {
	if ds := &r.peers[peer].send; stamp > ds.acked {
		ds.acked = stamp
	}
}

// applyDeltaData decodes and applies a DATA payload in the delta-capable
// record encoding. Every consumed record — whatever the main store decides
// — advances the per-sender shadow, because the shadow mirrors what the
// sender sent, not what the receiver kept. Store application then takes
// the one install path (install) the plain format takes.
//
// The records are decoded into scratch whose bytes alias m.Payload, which
// a pooling transport reuses once m is recycled: everything retained — the
// shadow, the store's state — is an owned slice (a reconstruction, or a
// copy of a replacement's bytes), shared between the two and carved from
// the store's arena like every other state the replica installs.
func (r *Runtime) applyDeltaData(m *wire.Msg) {
	recs, err := xlist.DecodeDeltaRecordsInto(r.decRecs, m.Payload)
	if err != nil {
		return // corrupt payloads are dropped, like plain diff batches
	}
	r.decRecs = recs
	src := int(m.Src)
	dr := &r.peers[src].recv
	for i := range recs {
		rec := &recs[i]
		e := dr.at(&r.deltaPool, rec.Obj)
		base, baseVer := r.deltaBase(e)
		var next []byte
		if rec.Delta {
			ok := !e.bad && baseVer == rec.BaseVer && diff.Fingerprint(base) == rec.BaseHash
			if ok {
				next, err = diff.ApplyXORTo(r.st.Alloc(len(base)), base, rec.X)
				ok = err == nil
			}
			if !ok {
				// Stale or diverged base (or a delta that does not decode
				// against it): refuse the delta and refetch the full state
				// from the sender (the reply realigns both sides' tables).
				// FIFO ordering makes this converge even if more
				// stale-base records are already in flight.
				r.mc.Add(metrics.DeltaMismatches, 1)
				e.bad = true
				r.deltaRequestRecovery(src, e)
				continue
			}
		} else if state, ok := rec.D.Replacement(); ok {
			next = append(r.st.Alloc(len(state))[:0], state...)
			e.bad, e.stamp = false, 0
		} else if next, err = diff.ApplyTo(r.st.Alloc(len(base)), base, rec.D); err != nil {
			// A run diff over an unknown shadow (or a malformed
			// replacement, which the codec already rejects): apply to the
			// store as plain data would, but the shadow stays unknown.
			e.bad, next = true, nil
			if rec.D.Replace {
				continue
			}
		}
		if !e.bad {
			e.state, e.ver, e.known = next, rec.Version, true
		}
		if !rec.D.Replace && !rec.Delta {
			next = nil // a run diff applies to the replica, not to the shadow's base
		}
		r.install(src, rec.Obj, rec.Version, rec.D, next, m.Stamp)
	}
}

// deltaRequestRecovery refetches e's object in full from peer after a base
// mismatch, at most once a tick per (peer, object): a lost fetch is asked
// again on the next refusal, and a duplicate is harmless, for deltaServe and
// deltaAdoptReply both realign the tables to the state served. Before the
// first tick (now 0, the "none outstanding" mark) every refusal fetches.
func (r *Runtime) deltaRequestRecovery(peer int, e *deltaEntry) {
	if e.stamp != 0 && e.stamp == r.now {
		return
	}
	e.stamp = r.now
	_ = r.AsyncGet(e.obj, peer)
}

// deltaServe resets the sender half of the table after serving obj's full
// state to peer (an ObjReply): the requester will adopt exactly this state
// as its shadow, so the tip realigns to it and the object's unproven
// records are forgotten (the reply supersedes them; any still in flight will
// be refused by the requester's fingerprint gate and recovered again if
// needed, but FIFO ordering means the reply lands after them). state must be
// an owned, published slice.
func (r *Runtime) deltaServe(peer int, obj store.ID, state []byte, ver int64) {
	if !r.cfg.DeltaEncode {
		return
	}
	*r.peers[peer].send.at(&r.deltaPool, obj) = deltaEntry{obj: obj, known: true, ver: ver, state: state}
}

// deltaAdoptReply realigns the receiver's shadow with a full-state ObjReply
// from peer (the recovery path's delivery): whatever the main store decided,
// the sender's table now assumes we hold exactly this state. state is
// copied (it is a message payload).
func (r *Runtime) deltaAdoptReply(peer int, obj store.ID, state []byte, ver int64) {
	e := r.peers[peer].recv.at(&r.deltaPool, obj)
	*e = deltaEntry{obj: obj, known: true, ver: ver, state: append(r.st.Alloc(len(state))[:0], state...)}
}

// deltaResetPeer drops every delta table for peer, forcing full records on
// the next exchange in both directions. Called on eviction and readmission:
// a session reset or a rejoin invalidates any assumption about what the
// other side holds.
func (r *Runtime) deltaResetPeer(peer int) {
	ps := &r.peers[peer]
	ps.send.reset(&r.deltaPool)
	ps.recv.reset(&r.deltaPool)
}

// deltaResetAll drops every peer's delta tables (a joiner's state predates
// the snapshot it is about to restore).
func (r *Runtime) deltaResetAll() {
	for peer := range r.peers {
		r.deltaResetPeer(peer)
	}
}
