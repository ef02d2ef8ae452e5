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
	"slices"

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
// On the wire it is a uvarint count, then one uvarint triple (object,
// writer, version) per notice, by object.
type board map[store.ID]notice

// encoder is scratch a board is encoded into. The application's releases
// and the service's grants each own one, since the two run concurrently;
// the node's send copies a payload before the next encode.
type encoder struct {
	ids []store.ID
	buf []byte
}

// encode flattens b into e's scratch, for the wire.
func (e *encoder) encode(b board) []byte {
	e.ids = e.ids[:0]
	for id := range b {
		e.ids = append(e.ids, id)
	}
	slices.Sort(e.ids)
	e.buf = binary.AppendUvarint(e.buf[:0], uint64(len(e.ids)))
	for _, id := range e.ids {
		n := b[id]
		e.buf = binary.AppendUvarint(e.buf, uint64(id))
		e.buf = binary.AppendUvarint(e.buf, uint64(n.writer))
		e.buf = binary.AppendUvarint(e.buf, uint64(n.version))
	}
	return e.buf
}

// take merges the encoded board in buf into b, keeping the higher version
// per object, and reports whether buf is a board. A corrupt one (a clean
// release carries none) conveys nothing, and a notice whose writer is not
// one of teams is dropped.
func (b board) take(buf []byte, teams int) bool {
	if !walk(buf, nil) {
		return false
	}
	walk(buf, func(id store.ID, n notice) {
		if cur, ok := b[id]; n.writer >= 0 && n.writer < teams && (!ok || n.version > cur.version) {
			b[id] = n
		}
	})
	return true
}

// walk calls f, when set, on each notice of the encoded board in buf in
// order, and reports whether buf is a whole board.
func walk(buf []byte, f func(store.ID, notice)) bool {
	count, k := binary.Uvarint(buf)
	if k <= 0 {
		return false
	}
	buf = buf[k:]
	// Each notice costs at least three bytes; a count the buffer could not
	// hold is corrupt.
	if count > uint64(len(buf)) {
		return false
	}
	for range count {
		var e [3]uint64 // object, writer, version
		for j := range e {
			if e[j], k = binary.Uvarint(buf); k <= 0 {
				return false
			}
			buf = buf[k:]
		}
		if f != nil {
			f(store.ID(e[0]), notice{writer: int(e[1]), version: int64(e[2])})
		}
	}
	return true
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
// freshest notices the node made or heard of, and encodes it into appEnc;
// the service keeps mgrBd, every notice the manager's dirty releases
// brought, and encodes it into svcEnc.
type policy struct {
	team, teams    int
	known, mgrBd   board
	appEnc, svcEnc encoder
}

func (p *policy) Wrote(obj store.ID, v int64) { p.known[obj] = notice{writer: p.team, version: v} }

// Release makes a dirty release carry the releaser's whole board.
func (p *policy) Release(rel wire.Msg, wrote bool, _ int64) wire.Msg {
	if wrote {
		rel.Mode, rel.Payload = wire.ModeWrite, p.appEnc.encode(p.known)
	}
	return rel
}

// Released folds a dirty release's board into the manager's. Ownership is
// the board's business: the lock manager records version 0.
func (p *policy) Released(rel *wire.Msg) (dirty bool, v int64) {
	p.mgrBd.take(rel.Payload, p.teams)
	return rel.Mode == wire.ModeWrite, 0
}

// Grant makes every grant carry the manager's accumulated board.
func (p *policy) Grant(m wire.Msg, _ lockmgr.Grant) wire.Msg {
	m.Payload = p.svcEnc.encode(p.mgrBd)
	return m
}

func (p *policy) ValidGrant(*wire.Msg) bool { return true }

// Acquired merges each grant's board and, once the whole set is held, names
// each object's noticed writer: the pulls come after every grant.
func (p *policy) Acquired(obj store.ID, grant *wire.Msg) (from int, v int64) {
	if grant != nil {
		p.known.take(grant.Payload, p.teams)
	} else if nt, ok := p.known[obj]; ok {
		return nt.writer, nt.version
	}
	return -1, 0
}
