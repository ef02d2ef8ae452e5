// Package vtime implements a deterministic discrete-event simulator with
// coroutine-style processes. It stands in for the paper's 16-workstation
// cluster: every simulated process runs ordinary blocking Go code on its own
// goroutine, but only one process goroutine executes at a time and the
// scheduler always resumes the runnable entity with the globally minimum
// virtual time. Executions are therefore fully deterministic and free of
// data races by construction, and per-process virtual clocks measure what
// wall-clock time would have measured on the real cluster.
//
// Processes interact through three primitives:
//
//   - Compute(d): advance the local clock by d (models CPU work).
//   - Send(to, payload, size): transmit a message; delivery time is chosen
//     by the simulation's LinkModel from the message size and link state.
//   - Recv(): block until a message is available and return the earliest
//     delivered one.
//
// A Sim ends when every process has returned, when virtual time exceeds the
// configured horizon, or when the system deadlocks (all processes blocked
// with no messages in flight).
package vtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Time is an instant of virtual time, measured as an offset from the start
// of the simulation.
type Time = time.Duration

// Message is a delivered payload together with its delivery metadata.
type Message struct {
	From      int
	To        int
	Payload   any
	Size      int  // wire size in bytes, as declared by the sender
	SentAt    Time // sender's clock when Send was called
	Delivered Time // virtual time the message reached the receiver's inbox
}

// LinkModel decides when a message sent at time now from one process to
// another becomes available at the receiver. Implementations may keep state
// (for example per-NIC busy-until times) and are invoked in deterministic
// order. Delivery must be >= now: links do not lose messages (faultnet
// does, at the endpoint).
type LinkModel interface {
	Delivery(from, to, size int, now Time) Time
}

// ConstantDelay is the simplest LinkModel: every message takes the same time.
type ConstantDelay Time

// Delivery implements LinkModel.
func (d ConstantDelay) Delivery(_, _, _ int, now Time) Time { return now + Time(d) }

var _ LinkModel = ConstantDelay(0)

// Config parameterizes a simulation.
type Config struct {
	// Links chooses message delivery times. Defaults to ConstantDelay(1ms).
	Links LinkModel
	// Horizon aborts the run once any clock passes this virtual time.
	// Zero means no horizon.
	Horizon Time
}

// ErrDeadlock is returned by Run when every live process is blocked in Recv
// and no messages are in flight.
var ErrDeadlock = errors.New("vtime: deadlock: all processes blocked with no messages in flight")

// ErrHorizon is returned by Run when the virtual-time horizon is exceeded.
var ErrHorizon = errors.New("vtime: horizon exceeded")

type procState int

const (
	stateRunnable procState = iota + 1 // ready to execute at proc.now
	stateRunning                       // currently holding the baton
	stateBlocked                       // parked in Recv with an empty inbox
	stateDone                          // process function returned
)

// Proc is the handle a simulated process uses to interact with the
// simulation. All methods must be called only from the process's own
// goroutine (the function passed to Sim.Spawn).
type Proc struct {
	id  int
	sim *Sim
	now Time

	state procState
	// baton wakes the process goroutine; the goroutine hands control back
	// by sending on sim.yield. Both channels are unbuffered so exactly one
	// goroutine runs at a time.
	baton chan struct{}

	inbox heap4[*event]

	// deadline, when hasDeadline is set, bounds the current blocking Recv:
	// the scheduler wakes the process at this virtual time even with an
	// empty inbox (RecvTimeout reports the expiry to the caller).
	deadline    Time
	hasDeadline bool

	// Accounting, exposed via Stats.
	computeTime Time
	blockedTime Time
	sent, recvd int
	sentBytes   int
}

// Stats is a snapshot of a process's accounting counters.
type Stats struct {
	ID          int
	Now         Time
	ComputeTime Time
	BlockedTime Time
	Sent        int
	Received    int
	SentBytes   int
}

// Sim is a deterministic discrete-event simulation.
type Sim struct {
	cfg    Config
	procs  []*Proc
	events heap4[*event]
	// free recycles delivered events back into Send; only one goroutine
	// (scheduler or the running process) executes at a time, so no lock.
	free    []*event
	seq     uint64
	yield   chan struct{}
	started bool
	failure error // sticky error observed during Run
}

// NewSim returns an empty simulation with the given configuration.
func NewSim(cfg Config) *Sim {
	if cfg.Links == nil {
		cfg.Links = ConstantDelay(time.Millisecond)
	}
	return &Sim{
		cfg:    cfg,
		events: newHeap4[*event](eventBefore),
		yield:  make(chan struct{}),
	}
}

// newEvent takes an event from the free-list, or allocates one.
func (s *Sim) newEvent() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return new(event)
}

// recycle returns a consumed event to the free-list, clearing the message so
// the payload it carried becomes collectable immediately.
func (s *Sim) recycle(ev *event) {
	ev.msg = Message{}
	s.free = append(s.free, ev)
}

// Spawn registers a new process whose body is fn. Processes are numbered in
// spawn order starting at 0. Spawn must be called before Run.
func (s *Sim) Spawn(fn func(p *Proc)) *Proc {
	if s.started {
		panic("vtime: Spawn after Run")
	}
	p := &Proc{
		id:    len(s.procs),
		sim:   s,
		state: stateRunnable,
		baton: make(chan struct{}),
		inbox: newHeap4[*event](eventBefore),
	}
	s.procs = append(s.procs, p)
	go func() {
		<-p.baton // wait for the first activation
		fn(p)
		p.state = stateDone
		s.yield <- struct{}{}
	}()
	return p
}

// Proc returns the process with the given id.
func (s *Sim) Proc(id int) *Proc { return s.procs[id] }

// Run executes the simulation to completion. It returns nil when every
// process has finished, or ErrDeadlock or ErrHorizon.
func (s *Sim) Run() error {
	if s.started {
		return errors.New("vtime: Run called twice")
	}
	s.started = true

	for {
		if s.failure != nil {
			s.releaseAll()
			return s.failure
		}

		// Choose the next action: the earliest of (a) the head of the
		// delivery-event queue, (b) the runnable process with the
		// smallest clock, and (c) the blocked process with the smallest
		// expiring Recv deadline. Deliveries win ties so that a process
		// resumed at time t has already seen every message deliverable at
		// or before t (including one arriving exactly at its deadline).
		var next *Proc
		var nextAt Time
		for _, p := range s.procs {
			var at Time
			switch {
			case p.state == stateRunnable:
				at = p.now
			case p.state == stateBlocked && p.hasDeadline:
				at = p.deadline
			default:
				continue
			}
			if next == nil || at < nextAt || (at == nextAt && p.id < next.id) {
				next, nextAt = p, at
			}
		}
		if s.events.Len() > 0 {
			ev := s.events.Peek()
			if next == nil || ev.at <= nextAt {
				s.events.Pop()
				s.deliver(ev)
				continue
			}
		}
		if next == nil {
			if s.anyLive() {
				err := s.deadlockError() // before releaseAll, which ends every process
				s.releaseAll()
				return err
			}
			return nil // all processes done
		}
		if s.cfg.Horizon > 0 && nextAt > s.cfg.Horizon {
			s.failure = ErrHorizon
			continue
		}
		if next.state == stateBlocked {
			// Waking on an expired Recv deadline with an empty inbox:
			// advance the clock to the deadline; RecvTimeout observes the
			// expiry and reports it.
			if next.deadline > next.now {
				next.blockedTime += next.deadline - next.now
				next.now = next.deadline
			}
			next.hasDeadline = false
		}

		// Hand the baton to the chosen process and wait for it to yield.
		next.state = stateRunning
		next.baton <- struct{}{}
		<-s.yield
	}
}

// releaseAll unblocks every live process goroutine so it can observe the
// failure and return; without this, goroutines parked on their batons would
// leak past Run.
func (s *Sim) releaseAll() {
	for _, p := range s.procs {
		if p.state == stateDone {
			continue
		}
		// Force the process's next operation to observe failure and
		// return. A live goroutine is always parked at (or on its way
		// to) <-p.baton, so a blocking send is safe.
		p.state = stateDone
		p.baton <- struct{}{}
		<-s.yield
	}
}

func (s *Sim) anyLive() bool {
	for _, p := range s.procs {
		if p.state != stateDone {
			return true
		}
	}
	return false
}

func (s *Sim) deadlockError() error {
	var blocked []string
	for _, p := range s.procs {
		if p.state == stateBlocked {
			blocked = append(blocked, fmt.Sprintf("proc %d @ %v", p.id, p.now))
		}
	}
	sort.Strings(blocked)
	return fmt.Errorf("%w: [%s]", ErrDeadlock, strings.Join(blocked, ", "))
}

func (s *Sim) deliver(ev *event) {
	p := s.procs[ev.msg.To]
	if p.state == stateDone {
		s.recycle(ev) // messages to finished processes are dropped
		return
	}
	p.inbox.Push(ev)
	if p.state == stateBlocked {
		// The receiver resumes no earlier than the delivery instant.
		if ev.at > p.now {
			p.blockedTime += ev.at - p.now
			p.now = ev.at
		}
		p.state = stateRunnable
		p.hasDeadline = false
	}
}

// yieldToScheduler parks the calling process goroutine (which must currently
// hold the baton) and waits to be resumed.
func (p *Proc) yieldToScheduler(st procState) {
	p.state = st
	p.sim.yield <- struct{}{}
	<-p.baton
}

// failed reports whether the simulation has been aborted; process bodies
// should return promptly when their operations start failing.
func (p *Proc) failed() bool { return p.sim.failure != nil || p.state == stateDone }

// ID returns the process's identifier (its spawn index).
func (p *Proc) ID() int { return p.id }

// Now returns the process's local virtual clock.
func (p *Proc) Now() Time { return p.now }

// Stats returns a snapshot of the process's accounting counters.
func (p *Proc) Stats() Stats {
	return Stats{
		ID:          p.id,
		Now:         p.now,
		ComputeTime: p.computeTime,
		BlockedTime: p.blockedTime,
		Sent:        p.sent,
		Received:    p.recvd,
		SentBytes:   p.sentBytes,
	}
}

// Compute advances the local clock by d, modeling CPU work, and yields to
// the scheduler so lower-clock entities run first.
func (p *Proc) Compute(d Time) {
	if p.failed() {
		return
	}
	if d < 0 {
		panic("vtime: negative compute duration")
	}
	p.now += d
	p.computeTime += d
	p.yieldToScheduler(stateRunnable)
}

// Send transmits payload to process `to`; size is the wire size in bytes
// used by the LinkModel. Send does not block (the network buffers), but the
// link model may account sender-side transmission time into the delivery
// instant of this and subsequent messages.
func (p *Proc) Send(to int, payload any, size int) {
	if p.failed() {
		return
	}
	if to < 0 || to >= len(p.sim.procs) {
		panic(fmt.Sprintf("vtime: send to unknown proc %d", to))
	}
	at := p.sim.cfg.Links.Delivery(p.id, to, size, p.now)
	if at < p.now {
		panic("vtime: LinkModel produced delivery before send")
	}
	p.sim.seq++
	ev := p.sim.newEvent()
	ev.at = at
	ev.seq = p.sim.seq
	ev.msg = Message{
		From:    p.id,
		To:      to,
		Payload: payload,
		Size:    size,
		SentAt:  p.now,
	}
	p.sim.events.Push(ev)
	p.sent++
	p.sentBytes += size
}

// Recv blocks until a message is available and returns the earliest
// delivered one. ok is false if the simulation was aborted while waiting.
func (p *Proc) Recv() (Message, bool) {
	for {
		if p.failed() {
			return Message{}, false
		}
		if p.inbox.Len() > 0 {
			ev := p.inbox.Pop()
			msg := ev.msg
			msg.Delivered = ev.at
			p.sim.recycle(ev)
			p.recvd++
			return msg, true
		}
		p.yieldToScheduler(stateBlocked)
	}
}

// RecvTimeout blocks like Recv but gives up once the local clock reaches
// now+d without a message becoming available. got reports whether a message
// was returned; timedOut reports a deadline expiry. When both are false the
// simulation was aborted while waiting. Deadline wakeups are scheduled in
// virtual time, so executions using RecvTimeout remain fully deterministic.
func (p *Proc) RecvTimeout(d Time) (msg Message, got bool, timedOut bool) {
	if d < 0 {
		panic("vtime: negative recv timeout")
	}
	deadline := p.now + d
	for {
		if p.failed() {
			return Message{}, false, false
		}
		if p.inbox.Len() > 0 {
			ev := p.inbox.Pop()
			msg := ev.msg
			msg.Delivered = ev.at
			p.sim.recycle(ev)
			p.recvd++
			return msg, true, false
		}
		if p.now >= deadline {
			return Message{}, false, true
		}
		p.deadline = deadline
		p.hasDeadline = true
		p.yieldToScheduler(stateBlocked)
	}
}

// TryRecv returns the earliest delivered message if one is already in the
// inbox, without blocking. Determinism caveat: the result depends on how far
// other clocks have advanced, so protocols should prefer Recv.
func (p *Proc) TryRecv() (Message, bool) {
	if p.failed() || p.inbox.Len() == 0 {
		return Message{}, false
	}
	ev := p.inbox.Pop()
	msg := ev.msg
	msg.Delivered = ev.at
	p.sim.recycle(ev)
	p.recvd++
	return msg, true
}

// Yield gives other entities with equal or lower clocks a chance to run
// without advancing this process's clock.
func (p *Proc) Yield() {
	if p.failed() {
		return
	}
	p.yieldToScheduler(stateRunnable)
}

// event is a pending message delivery.
type event struct {
	at  Time
	seq uint64
	msg Message
}

// eventBefore orders events by (delivery time, sequence number); it is the
// comparator for both the global delivery queue and every inbox.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
