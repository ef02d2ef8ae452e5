// The put/get API — the paper's async_put, sync_put, async_get and sync_get
// — and the serving halves of each. The synchronous calls block in the one
// wait (await); resending a request is safe, for serving is idempotent.
package core

import (
	"fmt"
	"slices"

	"sdso/internal/store"
	"sdso/internal/wire"
)

// modePut marks an ObjReq as carrying a put (state push needing an ack)
// rather than a get; modeAuto marks an async get whose reply should be
// applied on arrival without a waiter.
const (
	modePut  uint8 = 3
	modeAuto uint8 = 4
)

// replyVersion is the version a pushed or served state carries in Ints[0].
func replyVersion(m *wire.Msg) int64 {
	if len(m.Ints) > 0 {
		return m.Ints[0]
	}
	return 0
}

// adopt installs the state a put or an AsyncGet reply carries unless the
// replica is newer, returning its version and whether it was installed.
func (r *Runtime) adopt(m *wire.Msg) (int64, bool) {
	ver := replyVersion(m)
	if cur, err := r.st.Version(store.ID(m.Obj)); err != nil || ver < cur {
		return ver, false
	}
	_ = r.st.SetState(store.ID(m.Obj), m.Payload, ver)
	return ver, true
}

// stateMsg builds a kind message carrying obj's state and, in Ints, version.
func (r *Runtime) stateMsg(kind wire.Kind, id store.ID, mode uint8) (*wire.Msg, error) {
	state, err := r.st.Get(id)
	if err != nil {
		return nil, err
	}
	ver, _ := r.st.Version(id)
	return &wire.Msg{Kind: kind, Obj: uint32(id), Mode: mode, Ints: []int64{ver}, Payload: state}, nil
}

// serveObj answers a get with the object's current state, echoing the
// request's mode so AsyncGet replies self-identify.
func (r *Runtime) serveObj(peer int, m *wire.Msg) {
	id := store.ID(m.Obj)
	reply, err := r.stateMsg(wire.KindObjReply, id, m.Mode)
	if err != nil {
		return
	}
	reply.Stamp = m.Stamp
	ver := reply.Ints[0]
	if err := r.send(peer, reply); err != nil {
		return
	}
	// The requester adopts exactly this state as its shadow of us: realign
	// the sender half of the delta table to it (see delta.go). The tip
	// shares the store's published state; the payload now belongs to the
	// receiver.
	if view, err := r.st.View(id); err == nil {
		r.deltaServe(peer, id, view, ver)
	}
}

// acceptPut applies a pushed object state and acknowledges it.
func (r *Runtime) acceptPut(peer int, m *wire.Msg) {
	r.adopt(m)
	_ = r.send(peer, &wire.Msg{Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp})
}

// sendNow sends m and flushes it, for the calls that do not wait.
func (r *Runtime) sendNow(to int, m *wire.Msg) error {
	if err := r.send(to, m); err != nil {
		return err
	}
	r.flush()
	return nil
}

// AsyncPut sends obj's full current state to a remote process without
// waiting — the paper's async_put.
func (r *Runtime) AsyncPut(id store.ID, to int) error {
	m, err := r.stateMsg(wire.KindObjReply, id, 0)
	if err != nil {
		return err
	}
	return r.sendNow(to, m)
}

// SyncPut sends obj's state and blocks until the remote acknowledges — the
// paper's sync_put. The acknowledgment is the peer's ObjReply echo carrying
// the same stamp.
func (r *Runtime) SyncPut(id store.ID, to int) error {
	m, err := r.stateMsg(wire.KindObjReq, id, modePut)
	if err != nil {
		return err
	}
	m.Stamp = r.nextCorrelation(id)
	return r.request(to, m, false)
}

// nextCorrelation builds a correlation stamp for request/reply matching.
func (r *Runtime) nextCorrelation(id store.ID) int64 {
	r.corr++
	return r.corr<<20 | int64(id)&0xfffff
}

// AsyncGet requests obj's state from a remote process and returns without
// blocking; the reply is applied whenever it arrives — the paper's
// async_get.
func (r *Runtime) AsyncGet(id store.ID, from int) error {
	return r.sendNow(from, &wire.Msg{Kind: wire.KindObjReq, Mode: modeAuto, Obj: uint32(id), Stamp: r.now})
}

// SyncGet requests obj's state from a remote process and blocks until it
// arrives — the paper's sync_get, used by pull-based protocols to fetch the
// up-to-date copy from an owner.
func (r *Runtime) SyncGet(id store.ID, from int) error {
	return r.request(from, &wire.Msg{Kind: wire.KindObjReq, Obj: uint32(id), Stamp: r.nextCorrelation(id)}, true)
}

// replyIndex finds the parked ObjReply for (obj, stamp), or returns -1.
func (r *Runtime) replyIndex(obj uint32, stamp int64) int {
	return slices.IndexFunc(r.pendingReplies, func(m *wire.Msg) bool { return m.Obj == obj && m.Stamp == stamp })
}

// request sends a clone of req (req is kept for resends) to peer and waits
// in the one wait for the ObjReply matching it, installing its state when
// apply is set. A responder evicted as silent yields an error wrapping
// ErrSyncTimeout and ErrEvicted; one that left otherwise, ErrEvicted.
func (r *Runtime) request(to int, req *wire.Msg, apply bool) error {
	obj, stamp := req.Obj, req.Stamp
	if _, err := r.sendTo(to, req.Clone(), "request to"); err != nil {
		return err
	}
	r.flush()
	timeout := r.cfg.RendezvousTimeout
	evicted, err := r.await(&waiter{
		peers: []int{to}, timeout: timeout, suspect: true, goneFirst: true,
		pending: func(int) bool { // without a timeout, the paper's blocking wait
			ps := &r.peers[to]
			return r.replyIndex(obj, stamp) < 0 && !ps.is(crashed) && (timeout <= 0 || !ps.ended())
		},
		resend: func(int) (bool, error) { return r.sendTo(to, req.Clone(), "retransmit request to") },
	})
	if err != nil {
		return fmt.Errorf("await reply for obj %d: %w", obj, err)
	}
	i := r.replyIndex(obj, stamp)
	switch {
	case i >= 0:
	case evicted:
		return fmt.Errorf("core: no reply for obj %d from peer %d: %w (%w)", obj, to, ErrSyncTimeout, ErrEvicted)
	default:
		return fmt.Errorf("core: awaiting reply for obj %d from %d: %w", obj, to, ErrEvicted)
	}
	m := r.pendingReplies[i]
	r.pendingReplies = slices.Delete(r.pendingReplies, i, i+1)
	r.corrDone = max(r.corrDone, stamp)
	if apply {
		err = r.st.SetState(store.ID(obj), m.Payload, replyVersion(m))
	}
	r.recycle(m) // SetState copies the payload
	return err
}
