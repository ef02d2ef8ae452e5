// Package faultnet injects faults between a protocol and its transport: a
// deterministic, seeded transport.Endpoint wrapper composable over the
// in-memory, simulated, and TCP substrates. It models the failure classes
// the S-DSO crash-tolerance layer must survive — per-link message loss,
// duplication, bounded delay/reordering, bidirectional partitions, and
// fail-stop crashes scheduled at a logical tick or a point on the process
// clock.
//
// Every fault decision is drawn from a per-directed-link PRNG seeded from
// (Plan.Seed, src, dst), so a run's faults are a pure function of the seed
// and each link's send schedule: same seed + same sends ⇒ byte-identical
// decisions (see Endpoint.DecisionLog). Over the vtime transport, whole
// chaos experiments are therefore reproducible end to end.
//
// All endpoints of a group must be wrapped with the same Plan: fault
// decisions are made at the sender, which is what makes partitions
// bidirectional (each side drops its own outbound traffic).
package faultnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// ErrCrashed is returned by every operation of an endpoint whose process
// has crash-stopped: the process is silent from the crash instant on, and
// its own protocol stack observes the crash as this error.
var ErrCrashed = errors.New("faultnet: process crash-stopped")

// LinkFaults configures the faults injected on one directed link.
type LinkFaults struct {
	// DropProb is the probability a message is silently lost.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a message is held back and re-injected
	// after DelaySends subsequent sends on the same link (bounded
	// reordering). Held messages flush no later than Close.
	DelayProb  float64
	DelaySends int
}

func (f LinkFaults) zero() bool {
	return f.DropProb == 0 && f.DupProb == 0 && f.DelayProb == 0
}

// Crash schedules a fail-stop for one process. The zero value means the
// process never crashes.
type Crash struct {
	// AtTick, when positive, silences the process the moment it tries to
	// send exchange traffic (SYNC/DATA/DONE) stamped at or after this
	// logical tick: nothing of tick AtTick escapes.
	AtTick int64
	// At, when positive, silences the process once its endpoint clock
	// (virtual time on simulated transports) reaches this instant.
	At time.Duration
	// RestartAfter, when positive, schedules a crash-then-restart: the
	// process revives this long after its crash instant (At itself, or the
	// endpoint clock when the AtTick trigger fires), however fast the
	// protocol under test got there. The driver calls AwaitRestart after
	// observing ErrCrashed; everything queued while down is lost, and the
	// revived process must rejoin via the protocol's join machinery.
	RestartAfter time.Duration
}

func (c Crash) zero() bool { return c.AtTick <= 0 && c.At <= 0 }

// Heal schedules a partition repair. Once the local endpoint clock reaches
// At, the healed direction(s) of the named pair flow again.
type Heal struct {
	At time.Duration
	// Pair names the partitioned pair to heal. A OneWay heal removes only
	// the cut from Pair[0] to Pair[1]; otherwise both directions repair.
	Pair   [2]int
	OneWay bool
}

// neverHeals marks a cut with no scheduled repair.
const neverHeals = time.Duration(math.MaxInt64)

// Plan describes the faults for a whole process group. One Plan is shared
// by every wrapped endpoint so that both sides of a partition agree and a
// single seed reproduces the entire experiment.
type Plan struct {
	// Seed derives every per-link fault stream. Two plans with the same
	// seed and parameters make identical decisions on identical send
	// schedules.
	Seed int64
	// Default applies to every directed link without a Links override.
	Default LinkFaults
	// Links overrides fault parameters per directed (from, to) link.
	Links map[[2]int]LinkFaults
	// Partitions lists unordered node pairs whose traffic is dropped in
	// both directions (each wrapped side drops its own outbound half).
	Partitions [][2]int
	// OneWay lists directed (from, to) pairs whose from→to traffic is
	// dropped while the reverse direction still flows — asymmetric
	// partitions, the common shape of real link failures.
	OneWay [][2]int
	// Heals schedules partition repairs (see Heal). A cut with no
	// matching heal stays down for the whole run.
	Heals []Heal
	// Crashes schedules fail-stops per process ID.
	Crashes map[int]Crash
}

// linkFor resolves the fault parameters for the directed link (from, to).
func (pl *Plan) linkFor(from, to int) LinkFaults {
	if f, ok := pl.Links[[2]int{from, to}]; ok {
		return f
	}
	return pl.Default
}

// linkSeed derives a per-directed-link PRNG seed. The mixing constants are
// from splitmix64; all that matters is that distinct links get decorrelated
// streams, deterministically.
func linkSeed(seed int64, from, to int) int64 {
	z := uint64(seed) ^ (uint64(from+1) * 0x9e3779b97f4a7c15) ^ (uint64(to+1) * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Wrap layers the plan's faults over inner. mc, when non-nil, counts every
// injected fault; nil discards the counts.
func (pl *Plan) Wrap(inner transport.Endpoint, mc *metrics.Collector) *Endpoint {
	e := &Endpoint{
		inner:   inner,
		plan:    pl,
		mc:      mc,
		links:   make(map[int]*linkState),
		cutTo:   make(map[int]time.Duration),
		cutFrom: make(map[int]time.Duration),
	}
	self := inner.ID()
	addCut := func(m map[int]time.Duration, peer int) {
		if _, ok := m[peer]; !ok {
			m[peer] = neverHeals
		}
	}
	for _, p := range pl.Partitions {
		if p[0] == self {
			addCut(e.cutTo, p[1])
			addCut(e.cutFrom, p[1])
		}
		if p[1] == self {
			addCut(e.cutTo, p[0])
			addCut(e.cutFrom, p[0])
		}
	}
	for _, p := range pl.OneWay {
		if p[0] == self {
			addCut(e.cutTo, p[1])
		}
		if p[1] == self {
			addCut(e.cutFrom, p[0])
		}
	}
	for _, h := range pl.Heals {
		if h.At <= 0 {
			continue
		}
		heal := func(m map[int]time.Duration, peer int) {
			if d, ok := m[peer]; ok && h.At < d {
				m[peer] = h.At
			}
		}
		if h.Pair[0] == self {
			heal(e.cutTo, h.Pair[1])
			if !h.OneWay {
				heal(e.cutFrom, h.Pair[1])
			}
		}
		if h.Pair[1] == self {
			heal(e.cutFrom, h.Pair[0])
			if !h.OneWay {
				heal(e.cutTo, h.Pair[0])
			}
		}
	}
	if pl.Crashes != nil {
		e.crash = pl.Crashes[self]
	}
	return e
}

// linkState is the per-directed-link fault machinery.
type linkState struct {
	rng   *rand.Rand
	log   []byte      // one decision byte per message offered to the link
	held  []*wire.Msg // delayed messages awaiting re-injection
	due   []int       // send-counter values at which held messages release
	sends int         // messages passed to the link so far
}

// Decision bytes recorded in the per-link logs.
const (
	decPass      = '-'
	decDrop      = 'D'
	decDup       = '2'
	decDelay     = 'd'
	decPartition = 'P'
)

// Endpoint is a fault-injecting transport.Endpoint. It is safe for the
// same concurrent use as the wrapped endpoint (sends are serialized by one
// mutex, as the slow fault path is negligible next to transport costs).
type Endpoint struct {
	inner transport.Endpoint
	plan  *Plan
	mc    *metrics.Collector

	mu        sync.Mutex
	links     map[int]*linkState
	cutTo     map[int]time.Duration // outbound cuts: peer → heal instant
	cutFrom   map[int]time.Duration // inbound cuts: peer → heal instant
	crash     Crash
	crashed   bool
	crashedAt time.Duration // the crash instant Crash.RestartAfter counts from
	restarted bool          // revived by AwaitRestart: crash triggers disarmed
}

var _ transport.Endpoint = (*Endpoint)(nil)

// ID implements transport.Endpoint.
func (e *Endpoint) ID() int { return e.inner.ID() }

// N implements transport.Endpoint.
func (e *Endpoint) N() int { return e.inner.N() }

// Now implements transport.Endpoint.
func (e *Endpoint) Now() time.Duration { return e.inner.Now() }

// Compute implements transport.Endpoint.
func (e *Endpoint) Compute(d time.Duration) { e.inner.Compute(d) }

// Crashed reports whether this process has crash-stopped.
func (e *Endpoint) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// countFault records one injected fault.
func (e *Endpoint) countFault() {
	if e.mc != nil {
		e.mc.Add(metrics.Faults, 1)
	}
}

// checkCrashLocked trips the crash-stop triggers. m may be nil (receive
// path: only the clock trigger applies).
func (e *Endpoint) checkCrashLocked(m *wire.Msg) bool {
	if e.crashed {
		return true
	}
	if e.restarted || e.crash.zero() {
		return false
	}
	if e.crash.At > 0 && e.inner.Now() >= e.crash.At {
		e.crashed, e.crashedAt = true, e.crash.At
	}
	if !e.crashed && m != nil && e.crash.AtTick > 0 && m.Stamp >= e.crash.AtTick {
		switch m.Kind {
		case wire.KindSync, wire.KindData, wire.KindDone:
			e.crashed, e.crashedAt = true, e.inner.Now()
		}
	}
	if e.crashed {
		e.countFault()
	}
	return e.crashed
}

func (e *Endpoint) link(to int) *linkState {
	ls, ok := e.links[to]
	if !ok {
		ls = &linkState{rng: rand.New(rand.NewSource(linkSeed(e.plan.Seed, e.inner.ID(), to)))}
		e.links[to] = ls
	}
	return ls
}

// Send implements transport.Endpoint: it draws this message's fault
// decision from the link's seeded stream and forwards, duplicates, delays,
// or drops m accordingly. Send was given m, so a dropped m goes back to the
// pool (wire.PutPooled), as the mem endpoint's does when nobody will read
// it: a shared message returns the one reference this Send was given, and a
// delayed one keeps it until the link re-injects it.
func (e *Endpoint) Send(to int, m *wire.Msg) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.checkCrashLocked(m) {
		wire.PutPooled(m)
		return ErrCrashed
	}
	ls := e.link(to)
	if deadline, ok := e.cutTo[to]; ok && e.inner.Now() < deadline {
		ls.note(decPartition)
		e.countFault()
		wire.PutPooled(m)
		return nil // partitioned: silently lost
	}
	dec := byte(decPass)
	f := e.plan.linkFor(e.inner.ID(), to)
	if !f.zero() {
		switch r := ls.rng.Float64(); {
		case r < f.DropProb:
			dec = decDrop
		case r < f.DropProb+f.DupProb:
			dec = decDup
		case r < f.DropProb+f.DupProb+f.DelayProb:
			dec = decDelay
		}
	}
	ls.note(dec)
	ls.sends++
	if dec != decPass {
		e.countFault()
	}
	switch dec {
	case decDrop:
		wire.PutPooled(m)
		return nil
	case decDelay:
		ls.held = append(ls.held, m)
		ls.due = append(ls.due, ls.sends+max(f.DelaySends, 1))
		return nil
	}
	if err := e.flushDue(to, ls, false); err != nil {
		return err
	}
	if dec == decDup {
		// The duplicate is a clone and goes first: a sent message is given
		// away (transport.Endpoint.Send), so m cannot be read once the
		// wrapped transport has it.
		if err := e.inner.Send(to, m.Clone()); err != nil {
			return err
		}
	}
	return e.inner.Send(to, m)
}

func (ls *linkState) note(dec byte) { ls.log = append(ls.log, dec) }

// Flush implements transport.Flusher by delegation, so the runtime's flush
// barrier reaches a coalescing transport under the fault layer.
func (e *Endpoint) Flush() error { return transport.Flush(e.inner) }

// Recycle forwards consumed messages to the wrapped transport's free-list
// when it has one (transport.Recycler); otherwise it is a no-op.
func (e *Endpoint) Recycle(m *wire.Msg) { transport.Recycle(e.inner, m) }

// flushDue transmits held messages that have come due (all of them when
// force is set).
func (e *Endpoint) flushDue(to int, ls *linkState, force bool) error {
	for len(ls.held) > 0 && (force || ls.due[0] <= ls.sends) {
		m := ls.held[0]
		ls.held = ls.held[1:]
		ls.due = ls.due[1:]
		if err := e.inner.Send(to, m); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements transport.Endpoint.
func (e *Endpoint) Recv() (*wire.Msg, error) {
	for {
		e.mu.Lock()
		crashed := e.checkCrashLocked(nil)
		e.mu.Unlock()
		if crashed {
			return nil, ErrCrashed
		}
		m, err := e.inner.Recv()
		if err != nil {
			return nil, err
		}
		if e.admit(m) {
			return m, nil
		}
		transport.Recycle(e.inner, m)
	}
}

// RecvTimeout implements transport.Endpoint.
func (e *Endpoint) RecvTimeout(d time.Duration) (*wire.Msg, bool, error) {
	for {
		e.mu.Lock()
		crashed := e.checkCrashLocked(nil)
		e.mu.Unlock()
		if crashed {
			return nil, false, ErrCrashed
		}
		m, ok, err := e.inner.RecvTimeout(d)
		if err != nil || !ok {
			return nil, false, err
		}
		if e.admit(m) {
			return m, true, nil
		}
		transport.Recycle(e.inner, m)
	}
}

// TryRecv implements transport.Endpoint.
func (e *Endpoint) TryRecv() (*wire.Msg, bool, error) {
	for {
		e.mu.Lock()
		crashed := e.checkCrashLocked(nil)
		e.mu.Unlock()
		if crashed {
			return nil, false, ErrCrashed
		}
		m, ok, err := e.inner.TryRecv()
		if err != nil || !ok {
			return nil, false, err
		}
		if e.admit(m) {
			return m, true, nil
		}
		transport.Recycle(e.inner, m)
	}
}

// admit filters inbound traffic: messages from peers across a partition
// are dropped on the receive side too, covering traffic already in flight
// when the partition is modeled and groups where only some endpoints are
// wrapped. Receive-side partition drops are not counted as extra faults
// (the sender side already counted its half), and the receive paths hand
// what they drop to the wrapped endpoint's Recycle.
func (e *Endpoint) admit(m *wire.Msg) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	deadline, ok := e.cutFrom[int(m.Src)]
	return !ok || e.inner.Now() >= deadline
}

// AwaitRestart blocks (advancing the process clock) until the scheduled
// downtime has passed, discards everything queued while the process was down,
// and re-arms the endpoint with the crash triggers disarmed. The caller
// then re-runs its protocol stack with a rejoin configuration. It errors
// if no restart is scheduled or the process has not crashed yet.
func (e *Endpoint) AwaitRestart() error {
	e.mu.Lock()
	after := e.crash.RestartAfter
	crashed, crashedAt := e.crashed, e.crashedAt
	e.mu.Unlock()
	if after <= 0 {
		return errors.New("faultnet: no restart scheduled for this process")
	}
	if !crashed {
		return errors.New("faultnet: process has not crashed")
	}
	if d := crashedAt + after - e.inner.Now(); d > 0 {
		e.inner.Compute(d)
	}
	e.mu.Lock()
	e.crashed = false
	e.restarted = true
	e.mu.Unlock()
	// Fail-stop loses volatile state: messages delivered while down are
	// gone. Drain the inner inbox directly — admit filters don't apply to
	// traffic we're discarding wholesale.
	for {
		m, ok, err := e.inner.TryRecv()
		if err != nil || !ok {
			break
		}
		transport.Recycle(e.inner, m)
	}
	return nil
}

// Close implements transport.Endpoint: held (delayed) messages are flushed
// first unless the process crashed — a crashed process transmits nothing,
// and gives what it held back to the pool.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if !e.crashed {
		peers := make([]int, 0, len(e.links))
		for to := range e.links {
			peers = append(peers, to)
		}
		sort.Ints(peers)
		for _, to := range peers {
			_ = e.flushDue(to, e.links[to], true)
		}
	} else {
		for _, ls := range e.links {
			for _, m := range ls.held {
				wire.PutPooled(m)
			}
			ls.held, ls.due = nil, nil
		}
	}
	e.mu.Unlock()
	return e.inner.Close()
}

// DecisionLog serializes every fault decision taken so far: per destination
// (ascending), the link's decision bytes. Runs with the same Plan and the
// same per-link send schedules produce byte-identical logs.
func (e *Endpoint) DecisionLog() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	peers := make([]int, 0, len(e.links))
	for to := range e.links {
		peers = append(peers, to)
	}
	sort.Ints(peers)
	var out []byte
	for _, to := range peers {
		out = append(out, []byte(fmt.Sprintf("%d:", to))...)
		out = append(out, e.links[to].log...)
		out = append(out, ';')
	}
	return out
}
