// Package lrc is the lazy release consistency baseline discussed in the
// paper's §2.3. Like entry consistency it synchronizes through locks, but
// "LRC has no explicit associations between shared data and
// synchronization primitives": a lock acquisition must convey information
// about changes to *all* shared data known to the releaser, not just the
// data guarded by the lock. That difference is all this package holds: an
// LRC node is EC's node (internal/protocol/ec) with a release policy of
// Treadmarks-flavored write notices, and without EC's crash tolerance:
//
//   - every dirty release ships the releaser's complete notice board —
//     (object, writer, version) triples for every modification it has made
//     or heard about — to the lock's manager;
//   - every grant ships the manager's accumulated board to the acquirer,
//     which invalidates any object whose noticed version exceeds its
//     replica's;
//   - once the acquirer holds its whole lock set, each invalidated object
//     in it is pulled lazily from the noticed writer (the paper's
//     "history-based mechanism determines what data modifications have to
//     be transferred").
//
// The measurable §2.3 contrast with EC: notice boards inflate control
// message volume (bytes), and invalidations cause pulls for objects whose
// locks were never touched.
package lrc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"sdso/internal/lockmgr"
	"sdso/internal/protocol/ec"
	"sdso/internal/store"
	"sdso/internal/wire"
)

// notice records that writer produced version of obj.
type notice struct {
	writer  int
	version int64
}

// board is a notice set: the freshest known (writer, version) per object.
type board map[store.ID]notice

// merge folds other into b, keeping the higher version per object.
func (b board) merge(other board) {
	for id, n := range other {
		if cur, ok := b[id]; !ok || n.version > cur.version {
			b[id] = n
		}
	}
}

// encode flattens the board into uvarint triples, by object, for the wire.
func (b board) encode() []byte {
	ids := make([]store.ID, 0, len(b))
	for id := range b {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		n := b[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(n.writer))
		buf = binary.AppendUvarint(buf, uint64(n.version))
	}
	return buf
}

// decodeBoard parses an encoded board.
func decodeBoard(buf []byte) (board, error) {
	count, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, errors.New("lrc: corrupt board header")
	}
	buf = buf[k:]
	// Each entry costs at least three varint bytes; anything claiming
	// more entries than the buffer could hold is corrupt (and must not
	// drive the allocation below).
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("lrc: board claims %d entries in %d bytes", count, len(buf))
	}
	b := make(board, count)
	for i := uint64(0); i < count; i++ {
		var f [3]uint64 // object, writer, version
		for j := range f {
			if f[j], k = binary.Uvarint(buf); k <= 0 {
				return nil, fmt.Errorf("lrc: corrupt board entry %d", i)
			}
			buf = buf[k:]
		}
		b[store.ID(f[0])] = notice{writer: int(f[1]), version: int64(f[2])}
	}
	return b, nil
}

// New builds an LRC node: EC's node with the notice-board policy, and
// fault-free, so cfg sets none of SuspectTimeout, Rejoin and QuorumF. Any
// Policy it names is replaced.
func New(cfg ec.NodeConfig) (*ec.Node, error) {
	if cfg.SuspectTimeout > 0 || cfg.Rejoin || cfg.QuorumF > 0 {
		return nil, errors.New("lrc: the node is fault-free: SuspectTimeout, Rejoin and QuorumF are EC's")
	}
	p := &policy{teams: cfg.Game.Teams, known: make(board), mgrBd: make(board)}
	cfg.Policy = p
	n, err := ec.New(cfg)
	if err == nil {
		p.team = cfg.App.ID()
	}
	return n, err
}

// policy is the notice-board policy. The application keeps known, the
// freshest notices the node made or heard of; the service keeps mgrBd,
// every notice the manager's dirty releases brought.
type policy struct {
	team, teams  int
	known, mgrBd board
}

func (p *policy) Wrote(obj store.ID, v int64) { p.known[obj] = notice{writer: p.team, version: v} }

// Release makes a dirty release carry the releaser's whole board.
func (p *policy) Release(rel wire.Msg, wrote bool, _ int64) wire.Msg {
	if wrote {
		rel.Mode, rel.Payload = wire.ModeWrite, p.known.encode()
	}
	return rel
}

// Released folds a dirty release's board into the manager's. Ownership is
// the board's business: the lock manager records version 0.
func (p *policy) Released(rel *wire.Msg) (dirty bool, v int64) {
	p.take(p.mgrBd, rel.Payload)
	return rel.Mode == wire.ModeWrite, 0
}

// Grant makes every grant carry the manager's accumulated board.
func (p *policy) Grant(m wire.Msg, _ lockmgr.Grant) wire.Msg {
	m.Payload = p.mgrBd.encode()
	return m
}

func (p *policy) ValidGrant(*wire.Msg) bool { return true }

// Acquired merges each grant's board and, once the whole set is held, names
// each object's noticed writer: the pulls come after every grant.
func (p *policy) Acquired(obj store.ID, grant *wire.Msg) (from int, v int64) {
	if grant != nil {
		p.take(p.known, grant.Payload)
	} else if nt, ok := p.known[obj]; ok {
		return nt.writer, nt.version
	}
	return -1, 0
}

// take merges the board in payload into b. A corrupt board (a clean
// release carries none) conveys nothing, and a notice whose writer names
// no team is dropped.
func (p *policy) take(b board, payload []byte) {
	if bd, err := decodeBoard(payload); err == nil {
		for id, nt := range bd {
			if nt.writer < 0 || nt.writer >= p.teams {
				delete(bd, id)
			}
		}
		b.merge(bd)
	}
}
