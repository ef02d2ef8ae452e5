// Package metrics collects the per-process measurements behind the paper's
// evaluation: message counts split into control and data classes (Figures 6
// and 7), object-modification counts (the normalizer in Figure 5), and a
// breakdown of where virtual time went (Figure 8's protocol-overhead
// percentages).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sdso/internal/wire"
)

// Category labels where a process spent its time.
type Category int

// Time categories. AppCompute is useful work; everything else is protocol
// overhead in the paper's Figure 8 sense.
const (
	// CatAppCompute is application-level computation (the game's look &
	// decide step).
	CatAppCompute Category = iota + 1
	// CatExchange is time spent inside exchange(): sending updates and
	// blocked waiting for rendezvous partners (the lookahead protocols'
	// dominant cost).
	CatExchange
	// CatLockAcquire is time spent requesting and waiting for locks
	// (entry consistency).
	CatLockAcquire
	// CatObjPull is time spent pulling fresh object copies from owners
	// after a lock grant (entry consistency) or diffs after an acquire
	// (lazy release consistency).
	CatObjPull
	// CatLockRelease is time spent issuing lock releases.
	CatLockRelease
	// CatOther is protocol time that fits no other bucket.
	CatOther

	catMax
)

var catNames = map[Category]string{
	CatAppCompute:  "app-compute",
	CatExchange:    "exchange",
	CatLockAcquire: "lock-acquire",
	CatObjPull:     "obj-pull",
	CatLockRelease: "lock-release",
	CatOther:       "other",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if s, ok := catNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Categories lists all categories in a stable order.
func Categories() []Category {
	out := make([]Category, 0, int(catMax)-1)
	for c := CatAppCompute; c < catMax; c++ {
		out = append(out, c)
	}
	return out
}

// PaddedCounter is a cache-line-padded atomic counter. A Collector's
// counters sit side by side in one struct; without padding, two goroutines
// bumping adjacent counters would ping-pong the same cache line between
// cores. It is exported so other hot-path instrumentation (the trace
// recorder in internal/trace) can reuse the same layout.
type PaddedCounter struct {
	v atomic.Int64
	_ [56]byte // pad to a 64-byte line
}

// Add atomically adds n to the counter.
func (c *PaddedCounter) Add(n int64) { c.v.Add(n) }

// Load atomically reads the counter.
func (c *PaddedCounter) Load() int64 { return c.v.Load() }

// Max atomically raises the counter to n if n is larger — a lock-free
// high-water mark.
func (c *PaddedCounter) Max(n int64) {
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// padded keeps the Collector's field declarations short.
type padded = PaddedCounter

// Collector gathers one process's counters. It is safe for concurrent use
// (real transports receive on multiple goroutines): every counter is an
// independent padded atomic, so hot-path increments are lock-free and
// uncontended.
type Collector struct {
	msgsSent     [wire.NumKinds]padded // indexed by wire.Kind
	bytesSent    padded
	payloadBytes padded
	durations    [int(catMax)]padded // nanoseconds, indexed by Category
	mods         padded
	ticks        padded
	execTime     atomic.Int64

	// Fault-tolerance counters (crash detection and recovery).
	retransmits padded
	suspects    padded
	evictions   padded
	faults      padded

	// Rejoin counters (checkpointed state transfer and membership).
	joins         padded
	snapshotBytes padded
	catchupDiffs  padded

	// Quorum replication counters (majority-committed records and
	// replica-served recovery).
	quorumRounds    padded
	readRepairs     padded
	replicaCatchups padded

	// Wire-level counters (frame coalescing).
	// framesSent/wireBytes count physical frames and bytes at the TCP
	// transport and flushes the syscalls they coalesce into; msgsSent and
	// bytesSent count each frame the runtime sends, once. A DATA frame
	// usually carries a SYNC or DONE marker too (DESIGN.md §15): piggySyncs
	// and piggyDones count those — messages in the paper's accounting.
	framesSent padded
	flushes    padded
	wireBytes  padded
	piggySyncs padded
	piggyDones padded

	// TCP session-layer resilience counters: sockets re-established after
	// a loss, heartbeat intervals that passed without any traffic from a
	// peer, frames shed from full bounded send queues, the deepest any
	// send queue got, and pending bytes flushed by a graceful Drain.
	reconnects       padded
	heartbeatsMissed padded
	sendqShed        padded
	sendqDepthPeak   padded
	drainFlushed     padded

	// Delta-exchange and tick-batching counters: records shipped as XOR
	// deltas instead of full diffs, payload bytes those deltas saved,
	// delta base mismatches detected (and recovered from), logical ticks
	// folded into a later rendezvous's frame by the batching s-function.
	deltaRecords    padded
	deltaBytesSaved padded
	deltaMismatches padded
	ticksBatched    padded

	// Interest-management counters: the largest interest set the process
	// ever held (a gauge) and peers that entered or left the interest set
	// after the initial build (churn).
	interestSetPeak padded
	interestChurn   padded

	// World-sharding counter: DATA flushes vetoed because no shard
	// region is within reach of both neighborhoods.
	shardVetoes padded
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return new(Collector) }

// CountSend records one outgoing frame (a marker it carries is not counted).
func (c *Collector) CountSend(m *wire.Msg, size int) {
	if m.Kind.Valid() {
		c.msgsSent[m.Kind].v.Add(1)
	}
	c.bytesSent.v.Add(int64(size))
	c.payloadBytes.v.Add(int64(len(m.Payload)))
}

// AddTime attributes a span of (virtual) time to a category.
func (c *Collector) AddTime(cat Category, d time.Duration) {
	if d <= 0 {
		return
	}
	if cat < CatAppCompute || cat >= catMax {
		cat = CatOther
	}
	c.durations[cat].v.Add(int64(d))
}

// AddMod records one object modification.
func (c *Collector) AddMod() { c.mods.v.Add(1) }

// AddTick records one logical clock tick.
func (c *Collector) AddTick() { c.ticks.v.Add(1) }

// AddRetransmit records one retransmission of an unacknowledged message
// (rendezvous SYNC or sync put/get request).
func (c *Collector) AddRetransmit() { c.retransmits.v.Add(1) }

// AddSuspect records that a peer entered the suspected state (a timeout
// expired without an answer from it).
func (c *Collector) AddSuspect() { c.suspects.v.Add(1) }

// AddEviction records that a suspected peer was declared crashed and
// removed from the process's live set.
func (c *Collector) AddEviction() { c.evictions.v.Add(1) }

// AddFault records one injected fault (dropped, duplicated, delayed, or
// partitioned message, or a crash-stop) observed at this process's
// fault-injecting transport.
func (c *Collector) AddFault() { c.faults.v.Add(1) }

// AddJoin records one completed join handshake: a joiner that finished
// catching up, or a survivor that served a join request.
func (c *Collector) AddJoin() { c.joins.v.Add(1) }

// AddSnapshotBytes records n bytes of checkpoint payload sent to a joiner.
func (c *Collector) AddSnapshotBytes(n int) { c.snapshotBytes.v.Add(int64(n)) }

// AddCatchupDiffs records n object states adopted from peer snapshots
// while catching up after a join.
func (c *Collector) AddCatchupDiffs(n int) { c.catchupDiffs.v.Add(int64(n)) }

// AddQuorumRound records one completed quorum round trip: a record
// committed to a majority of its replica group, or a checkpoint streamed to
// its f+1 recipients.
func (c *Collector) AddQuorumRound() { c.quorumRounds.v.Add(1) }

// AddReadRepair records one read repair: a quorum read that overwrote a
// stale replica with the highest value in its majority.
func (c *Collector) AddReadRepair() { c.readRepairs.v.Add(1) }

// AddReplicaCatchup records one replica-served recovery: a vaulted
// checkpoint merged or handed to a rejoiner, or a lock shard rebuilt from
// its quorum group after manager failover.
func (c *Collector) AddReplicaCatchup() { c.replicaCatchups.v.Add(1) }

// AddFrame records one physical frame of n bytes put on the wire (or
// staged in a coalescing write buffer).
func (c *Collector) AddFrame(n int) {
	c.framesSent.v.Add(1)
	c.wireBytes.v.Add(int64(n))
}

// AddFlush records one writer flush — the syscall boundary that frames
// coalesce into. FramesSent/Flushes is the coalescing factor.
func (c *Collector) AddFlush() { c.flushes.v.Add(1) }

// AddPiggybackedSync records one SYNC marker that rode on a data frame
// instead of occupying a frame of its own.
func (c *Collector) AddPiggybackedSync() { c.piggySyncs.v.Add(1) }

// AddPiggybackedDone records one DONE marker that rode on a final flush.
func (c *Collector) AddPiggybackedDone() { c.piggyDones.v.Add(1) }

// AddReconnect records one link re-established after a socket loss (the
// TCP session layer's reconnect path, including a restarted peer's fresh
// incarnation replacing a stale socket).
func (c *Collector) AddReconnect() { c.reconnects.v.Add(1) }

// AddHeartbeatsMissed records n heartbeat intervals that elapsed without
// any traffic from an idle-probed peer.
func (c *Collector) AddHeartbeatsMissed(n int) { c.heartbeatsMissed.v.Add(int64(n)) }

// AddSendQShed records one SYNC-class frame shed from a full bounded send
// queue under the shed-oldest policy.
func (c *Collector) AddSendQShed() { c.sendqShed.v.Add(1) }

// NoteSendQDepth raises the send-queue high-water mark to depth if it is
// the deepest observed so far.
func (c *Collector) NoteSendQDepth(depth int) { c.sendqDepthPeak.Max(int64(depth)) }

// AddDrainFlushedBytes records n pending bytes that a graceful Drain put
// on the wire before half-closing.
func (c *Collector) AddDrainFlushedBytes(n int) { c.drainFlushed.v.Add(int64(n)) }

// AddDeltaRecord records one object record shipped as an XOR delta instead
// of a full diff, saving saved payload bytes.
func (c *Collector) AddDeltaRecord(saved int) {
	c.deltaRecords.v.Add(1)
	c.deltaBytesSaved.v.Add(int64(saved))
}

// AddDeltaMismatch records one delta record refused because the receiver's
// base (version or fingerprint) diverged from the sender's, triggering a
// full-state recovery fetch.
func (c *Collector) AddDeltaMismatch() { c.deltaMismatches.v.Add(1) }

// AddTickBatched records one logical tick whose writes were folded into a
// later rendezvous's frame by the tick-batching s-function.
func (c *Collector) AddTickBatched() { c.ticksBatched.v.Add(1) }

// NoteInterestSetSize raises the interest-set high-water mark to n if it
// is the largest set observed so far.
func (c *Collector) NoteInterestSetSize(n int) { c.interestSetPeak.Max(int64(n)) }

// AddInterestChurn records n peers entering or leaving the interest set
// at one refresh.
func (c *Collector) AddInterestChurn(n int) { c.interestChurn.v.Add(int64(n)) }

// AddShardVeto records one DATA flush withheld because the peer's
// neighborhood shares no world shard with ours.
func (c *Collector) AddShardVeto() { c.shardVetoes.v.Add(1) }

// SetExecTime records the process's total execution time (its clock at
// completion).
func (c *Collector) SetExecTime(d time.Duration) { c.execTime.Store(int64(d)) }

// Snapshot returns an immutable copy of the collected values. Counters that
// were never touched are omitted from the maps, matching what the old
// map-backed collector exposed.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		MsgsSent:     make(map[wire.Kind]int),
		Durations:    make(map[Category]time.Duration),
		BytesSent:    int(c.bytesSent.v.Load()),
		PayloadBytes: int(c.payloadBytes.v.Load()),
		Mods:         int(c.mods.v.Load()),
		Ticks:        int(c.ticks.v.Load()),
		ExecTime:     time.Duration(c.execTime.Load()),
		Retransmits:  int(c.retransmits.v.Load()),
		Suspects:     int(c.suspects.v.Load()),
		Evictions:    int(c.evictions.v.Load()),
		Faults:       int(c.faults.v.Load()),

		Joins:         int(c.joins.v.Load()),
		SnapshotBytes: int(c.snapshotBytes.v.Load()),
		CatchupDiffs:  int(c.catchupDiffs.v.Load()),

		QuorumRounds:    int(c.quorumRounds.v.Load()),
		ReadRepairs:     int(c.readRepairs.v.Load()),
		ReplicaCatchups: int(c.replicaCatchups.v.Load()),

		FramesSent:       int(c.framesSent.v.Load()),
		Flushes:          int(c.flushes.v.Load()),
		WireBytes:        int(c.wireBytes.v.Load()),
		PiggybackedSyncs: int(c.piggySyncs.v.Load()),
		PiggybackedDones: int(c.piggyDones.v.Load()),

		Reconnects:        int(c.reconnects.v.Load()),
		HeartbeatsMissed:  int(c.heartbeatsMissed.v.Load()),
		SendQShed:         int(c.sendqShed.v.Load()),
		SendQDepthPeak:    int(c.sendqDepthPeak.v.Load()),
		DrainFlushedBytes: int(c.drainFlushed.v.Load()),

		DeltaRecords:    int(c.deltaRecords.v.Load()),
		DeltaBytesSaved: int(c.deltaBytesSaved.v.Load()),
		DeltaMismatches: int(c.deltaMismatches.v.Load()),
		TicksBatched:    int(c.ticksBatched.v.Load()),

		InterestSetPeak: int(c.interestSetPeak.v.Load()),
		InterestChurn:   int(c.interestChurn.v.Load()),

		ShardVetoes: int(c.shardVetoes.v.Load()),
	}
	for k := wire.KindSync; int(k) < wire.NumKinds; k++ {
		if n := c.msgsSent[k].v.Load(); n != 0 {
			s.MsgsSent[k] = int(n)
		}
	}
	for _, cat := range Categories() {
		if d := c.durations[cat].v.Load(); d != 0 {
			s.Durations[cat] = time.Duration(d)
		}
	}
	return s
}

// Snapshot is a frozen view of one process's metrics.
type Snapshot struct {
	MsgsSent  map[wire.Kind]int
	BytesSent int
	// PayloadBytes is the part of BytesSent that was Msg.Payload; the
	// rest, 1 - PayloadBytes/BytesSent, is envelope: header and Ints.
	PayloadBytes int
	Durations    map[Category]time.Duration
	Mods         int
	Ticks        int
	ExecTime     time.Duration
	// Fault-tolerance counters: message retransmissions, peers that
	// entered the suspected state, peers evicted as crashed, and faults
	// injected by the process's (fault-injecting) transport.
	Retransmits int
	Suspects    int
	Evictions   int
	Faults      int
	// Rejoin counters: join handshakes completed or served, checkpoint
	// payload bytes shipped to joiners, and object states adopted from
	// peer snapshots during catch-up.
	Joins         int
	SnapshotBytes int
	CatchupDiffs  int
	// Quorum replication counters: majority round trips completed, stale
	// replicas repaired by quorum reads, and recoveries served from
	// replicas instead of original holders.
	QuorumRounds    int
	ReadRepairs     int
	ReplicaCatchups int
	// Wire-level counters: physical frames and bytes at the transport
	// (only populated by transports that report them, currently TCP), the
	// flush syscalls those frames coalesced into, and the SYNC and DONE
	// markers that rode on data frames instead of frames of their own.
	FramesSent       int
	Flushes          int
	WireBytes        int
	PiggybackedSyncs int
	PiggybackedDones int
	// TCP session-layer resilience counters: reconnects completed,
	// heartbeat intervals missed, frames shed from full send queues, the
	// send-queue depth high-water mark, and bytes flushed by Drain.
	Reconnects        int
	HeartbeatsMissed  int
	SendQShed         int
	SendQDepthPeak    int
	DrainFlushedBytes int
	// Delta-exchange and tick-batching counters: XOR-delta records sent,
	// payload bytes those deltas saved over full diffs, delta base
	// mismatches detected, and ticks folded by the batching s-function.
	DeltaRecords    int
	DeltaBytesSaved int
	DeltaMismatches int
	TicksBatched    int
	// Interest-management counters: the largest interest set held at any
	// refresh and peers entering or leaving the set after the initial
	// build. InterestFetches is always 0: interest no longer pulls on an
	// enter-radius event, and the field stays only because the benchmark
	// still reads it.
	InterestSetPeak int
	InterestChurn   int
	InterestFetches int
	// World-sharding counter: DATA flushes vetoed by shard residency.
	ShardVetoes int
}

// DataMsgs returns the number of data messages sent (paper Figure 7).
func (s Snapshot) DataMsgs() int {
	n := 0
	for k, v := range s.MsgsSent {
		if (&wire.Msg{Kind: k}).IsData() {
			n += v
		}
	}
	return n
}

// TotalMsgs returns the number of frames of any kind sent.
func (s Snapshot) TotalMsgs() int {
	n := 0
	for _, v := range s.MsgsSent {
		n += v
	}
	return n
}

// LogicalMsgs counts messages as the paper does (Figure 6): every frame,
// plus each SYNC or DONE marker that rode on a data frame.
func (s Snapshot) LogicalMsgs() int {
	return s.TotalMsgs() + s.PiggybackedSyncs + s.PiggybackedDones
}

// ControlMsgs returns TotalMsgs minus DataMsgs.
func (s Snapshot) ControlMsgs() int { return s.TotalMsgs() - s.DataMsgs() }

// ProtocolTime sums every duration bucket except application compute.
func (s Snapshot) ProtocolTime() time.Duration {
	var d time.Duration
	for cat, v := range s.Durations {
		if cat != CatAppCompute {
			d += v
		}
	}
	return d
}

// OverheadPct returns protocol time as a percentage of execution time
// (Figure 8). Zero execution time yields zero.
func (s Snapshot) OverheadPct() float64 {
	if s.ExecTime <= 0 {
		return 0
	}
	return 100 * float64(s.ProtocolTime()) / float64(s.ExecTime)
}

// Group aggregates the snapshots of all processes in one experiment run.
type Group struct {
	Procs []Snapshot
}

// Sum adds f over every process: the one per-process sum the roll-ups
// below, and the harness's panel columns, read a Snapshot through.
func (g Group) Sum(f func(Snapshot) int) int {
	n := 0
	for _, s := range g.Procs {
		n += f(s)
	}
	return n
}

// TotalMsgs sums frame counts across processes.
func (g Group) TotalMsgs() int { return g.Sum(Snapshot.TotalMsgs) }

// DataMsgs sums data-message counts across processes.
func (g Group) DataMsgs() int { return g.Sum(Snapshot.DataMsgs) }

// ControlMsgs sums control-message counts across processes.
func (g Group) ControlMsgs() int { return g.TotalMsgs() - g.DataMsgs() }

// Retransmits sums retransmission counts across processes.
func (g Group) Retransmits() int { return g.Sum(func(s Snapshot) int { return s.Retransmits }) }

// Evictions sums crash-eviction counts across processes.
func (g Group) Evictions() int { return g.Sum(func(s Snapshot) int { return s.Evictions }) }

// Faults sums injected-fault counts across processes.
func (g Group) Faults() int { return g.Sum(func(s Snapshot) int { return s.Faults }) }

// Joins sums completed/served join handshakes across processes.
func (g Group) Joins() int { return g.Sum(func(s Snapshot) int { return s.Joins }) }

// SnapshotBytes sums checkpoint payload bytes across processes.
func (g Group) SnapshotBytes() int { return g.Sum(func(s Snapshot) int { return s.SnapshotBytes }) }

// CatchupDiffs sums snapshot-adopted object states across processes.
func (g Group) CatchupDiffs() int { return g.Sum(func(s Snapshot) int { return s.CatchupDiffs }) }

// QuorumRounds sums completed quorum round trips across processes.
func (g Group) QuorumRounds() int { return g.Sum(func(s Snapshot) int { return s.QuorumRounds }) }

// ReplicaCatchups sums replica-served recoveries across processes.
func (g Group) ReplicaCatchups() int { return g.Sum(func(s Snapshot) int { return s.ReplicaCatchups }) }

// PayloadBytes sums sent payload bytes across processes.
func (g Group) PayloadBytes() int { return g.Sum(func(s Snapshot) int { return s.PayloadBytes }) }

// LogicalMsgs sums the paper's message count across processes.
func (g Group) LogicalMsgs() int { return g.Sum(Snapshot.LogicalMsgs) }

// ShardVetoes sums residency-vetoed DATA flushes across processes.
func (g Group) ShardVetoes() int { return g.Sum(func(s Snapshot) int { return s.ShardVetoes }) }

// AvgExecTime averages process execution times.
func (g Group) AvgExecTime() time.Duration {
	if len(g.Procs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range g.Procs {
		sum += s.ExecTime
	}
	return sum / time.Duration(len(g.Procs))
}

// AvgMods averages per-process object-modification counts.
func (g Group) AvgMods() float64 {
	if len(g.Procs) == 0 {
		return 0
	}
	sum := 0
	for _, s := range g.Procs {
		sum += s.Mods
	}
	return float64(sum) / float64(len(g.Procs))
}

// NormalizedExecTime is the paper's Figure 5 metric: average execution time
// per process divided by the average number of object modifications.
func (g Group) NormalizedExecTime() time.Duration {
	mods := g.AvgMods()
	if mods == 0 {
		return 0
	}
	return time.Duration(float64(g.AvgExecTime()) / mods)
}

// AvgOverheadPct averages per-process overhead percentages (Figure 8).
func (g Group) AvgOverheadPct() float64 {
	if len(g.Procs) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range g.Procs {
		sum += s.OverheadPct()
	}
	return sum / float64(len(g.Procs))
}

// AvgCategoryPct returns the average share of execution time spent in cat.
func (g Group) AvgCategoryPct(cat Category) float64 {
	if len(g.Procs) == 0 {
		return 0
	}
	sum := 0.0
	count := 0
	for _, s := range g.Procs {
		if s.ExecTime <= 0 {
			continue
		}
		sum += 100 * float64(s.Durations[cat]) / float64(s.ExecTime)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// String renders a one-line summary.
func (g Group) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "procs=%d normTime=%v totalMsgs=%d dataMsgs=%d overhead=%.1f%%",
		len(g.Procs), g.NormalizedExecTime(), g.TotalMsgs(), g.DataMsgs(), g.AvgOverheadPct())
	return b.String()
}

// KindBreakdown returns "kind=count" terms sorted by kind, for debugging.
func (g Group) KindBreakdown() string {
	total := make(map[wire.Kind]int)
	for _, s := range g.Procs {
		for k, v := range s.MsgsSent {
			total[k] += v
		}
	}
	kinds := make([]wire.Kind, 0, len(total))
	for k := range total {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, total[k]))
	}
	return strings.Join(parts, " ")
}
