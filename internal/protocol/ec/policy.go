package ec

import (
	"sdso/internal/lockmgr"
	"sdso/internal/store"
	"sdso/internal/wire"
)

// A Policy is what a lock conveys, the line §2.3 draws between entry and
// lazy release consistency: under EC the data the lock guards, under LRC
// notices of all the data the releaser knows (internal/protocol/lrc).
// Released and Grant run on the service, the rest on the application, so it
// needs no lock. Frames pass by value: a pointer would send them to the heap.
type Policy interface {
	// What a release carries. Wrote notes the tick's write of obj at v;
	// Release fills in a release, wrote saying the tick wrote its object at
	// v; Released reads one at the manager: is it dirty, and at which
	// version is the releaser the owner.
	Wrote(obj store.ID, v int64)
	Release(rel wire.Msg, wrote bool, v int64) wire.Msg
	Released(rel *wire.Msg) (dirty bool, v int64)
	// What a grant carries: Grant fills in g's; ValidGrant says whether m
	// could be one (one that is not resolves no wait).
	Grant(m wire.Msg, g lockmgr.Grant) wire.Msg
	ValidGrant(m *wire.Msg) bool
	// What an acquire does with it: Acquired takes in obj's grant, and is
	// asked again with none once the set is held, each time naming the
	// team to pull obj from (negative: none) and the version there.
	Acquired(obj store.ID, grant *wire.Msg) (from int, v int64)
}

// entry is EC's policy: a release carries [dirty, version], a dirty one
// making the releaser the owner; a grant carries [owner, version], and the
// acquirer pulls from the owner after each grant. It allocates nothing.
type entry struct{ n *Node }

// cleanRelease is the Ints of every clean release, shared and read-only.
var cleanRelease = []int64{0, 0}

func (entry) Wrote(store.ID, int64) {}

func (p entry) Release(rel wire.Msg, wrote bool, v int64) wire.Msg {
	if rel.Ints = cleanRelease; wrote {
		rel.Ints = p.n.appInts.Carve(1, v)
	}
	return rel
}

func (entry) Released(rel *wire.Msg) (dirty bool, v int64) {
	if len(rel.Ints) >= 2 && rel.Ints[0] == 1 {
		return true, rel.Ints[1]
	}
	return false, 0
}

func (p entry) Grant(m wire.Msg, g lockmgr.Grant) wire.Msg {
	m.Ints = p.n.svcInts.Carve(int64(g.Owner), g.Version)
	return m
}

// ValidGrant is the one check of an owner: a grant naming no team would
// aim the pull at no service.
func (p entry) ValidGrant(m *wire.Msg) bool {
	return len(m.Ints) >= 2 && m.Ints[0] >= 0 && m.Ints[0] < int64(p.n.teams)
}

func (entry) Acquired(_ store.ID, grant *wire.Msg) (from int, v int64) {
	if grant == nil {
		return -1, 0
	}
	return int(grant.Ints[0]), grant.Ints[1]
}
