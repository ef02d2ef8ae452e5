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
	"unsafe"

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

// Counter names one of a Collector's counters. Each is declared once, here
// with its meaning, once in the table below with its name (the one DESIGN.md
// uses) and its Snapshot field, and once as that field.
type Counter int

// Counters. Peaks are raised with Max; every other counter grows with Add.
const (
	BytesSent         Counter = iota // bytes of the frames the runtime sent (CountSend)
	PayloadBytes                     // the part of BytesSent that was Msg.Payload; the rest is envelope: header and Ints
	Mods                             // object modifications, the normalizer of Figure 5
	Ticks                            // logical clock ticks
	Retransmits                      // retransmissions of an unacknowledged SYNC or sync put/get request
	Suspects                         // peers that entered the suspected state: a timeout expired without an answer
	Evictions                        // suspected peers declared crashed and removed from the live set
	Faults                           // faults injected by the process's fault-injecting transport, crash-stops included
	Joins                            // join handshakes completed by a joiner or served by a survivor
	SnapshotBytes                    // checkpoint payload bytes sent to joiners
	CatchupDiffs                     // object states adopted from peer snapshots while catching up after a join
	QuorumRounds                     // quorum round trips: a record committed to a majority, a checkpoint streamed to f+1
	ReadRepairs                      // quorum reads that overwrote a stale replica with their majority's highest value
	ReplicaCatchups                  // recoveries served from replicas: a vaulted checkpoint merged or handed back, a lock shard rebuilt
	FramesSent                       // physical frames put on the wire or staged in a coalescing write buffer (TCP)
	Flushes                          // writer flushes, the syscalls frames coalesce into; FramesSent/Flushes is the coalescing factor
	WireBytes                        // bytes of those physical frames, length prefixes included
	PiggybackedSyncs                 // SYNC markers that rode on a DATA frame instead of a frame of their own
	PiggybackedDones                 // DONE markers that rode on a final flush
	Reconnects                       // links re-established after a socket loss, a restarted peer's new incarnation included
	HeartbeatsMissed                 // heartbeat intervals that passed without any traffic from an idle-probed peer
	SendQDepthPeak                   // the deepest any TCP send queue got, in frames
	DrainFlushedBytes                // pending bytes a graceful Drain put on the wire before half-closing
	DeltaRecords                     // object records shipped as XOR deltas instead of full diffs
	DeltaBytesSaved                  // payload bytes those deltas saved over full diffs
	DeltaMismatches                  // delta records refused for a diverged base, each triggering a full-state fetch
	TicksBatched                     // logical ticks whose writes a later rendezvous's frame carried (tick batching)
	InterestSetPeak                  // the largest interest set held at any refresh
	InterestChurn                    // peers entering or leaving the interest set after its initial build
	ShardVetoes                      // DATA flushes withheld because the peer's neighborhood shares no world shard with ours

	numCounters
)

// counters names each counter and places it in a Snapshot: off is the
// offset of its int field (an offset, not a setter, so that Snapshot's
// result stays off the heap).
var counters = [numCounters]struct {
	name string
	off  uintptr
}{
	BytesSent:         {"bytes_sent", unsafe.Offsetof(Snapshot{}.BytesSent)},
	PayloadBytes:      {"payload_bytes", unsafe.Offsetof(Snapshot{}.PayloadBytes)},
	Mods:              {"mods", unsafe.Offsetof(Snapshot{}.Mods)},
	Ticks:             {"ticks", unsafe.Offsetof(Snapshot{}.Ticks)},
	Retransmits:       {"retransmits", unsafe.Offsetof(Snapshot{}.Retransmits)},
	Suspects:          {"suspects", unsafe.Offsetof(Snapshot{}.Suspects)},
	Evictions:         {"evictions", unsafe.Offsetof(Snapshot{}.Evictions)},
	Faults:            {"faults", unsafe.Offsetof(Snapshot{}.Faults)},
	Joins:             {"joins", unsafe.Offsetof(Snapshot{}.Joins)},
	SnapshotBytes:     {"snapshot_bytes", unsafe.Offsetof(Snapshot{}.SnapshotBytes)},
	CatchupDiffs:      {"catchup_diffs", unsafe.Offsetof(Snapshot{}.CatchupDiffs)},
	QuorumRounds:      {"quorum_rounds", unsafe.Offsetof(Snapshot{}.QuorumRounds)},
	ReadRepairs:       {"read_repairs", unsafe.Offsetof(Snapshot{}.ReadRepairs)},
	ReplicaCatchups:   {"replica_catchups", unsafe.Offsetof(Snapshot{}.ReplicaCatchups)},
	FramesSent:        {"frames_sent", unsafe.Offsetof(Snapshot{}.FramesSent)},
	Flushes:           {"flushes", unsafe.Offsetof(Snapshot{}.Flushes)},
	WireBytes:         {"wire_bytes", unsafe.Offsetof(Snapshot{}.WireBytes)},
	PiggybackedSyncs:  {"piggybacked_syncs", unsafe.Offsetof(Snapshot{}.PiggybackedSyncs)},
	PiggybackedDones:  {"piggybacked_dones", unsafe.Offsetof(Snapshot{}.PiggybackedDones)},
	Reconnects:        {"reconnects", unsafe.Offsetof(Snapshot{}.Reconnects)},
	HeartbeatsMissed:  {"heartbeats_missed", unsafe.Offsetof(Snapshot{}.HeartbeatsMissed)},
	SendQDepthPeak:    {"sendq_depth_peak", unsafe.Offsetof(Snapshot{}.SendQDepthPeak)},
	DrainFlushedBytes: {"drain_flushed_bytes", unsafe.Offsetof(Snapshot{}.DrainFlushedBytes)},
	DeltaRecords:      {"delta_records", unsafe.Offsetof(Snapshot{}.DeltaRecords)},
	DeltaBytesSaved:   {"delta_bytes_saved", unsafe.Offsetof(Snapshot{}.DeltaBytesSaved)},
	DeltaMismatches:   {"delta_mismatches", unsafe.Offsetof(Snapshot{}.DeltaMismatches)},
	TicksBatched:      {"ticks_batched", unsafe.Offsetof(Snapshot{}.TicksBatched)},
	InterestSetPeak:   {"interest_set_peak", unsafe.Offsetof(Snapshot{}.InterestSetPeak)},
	InterestChurn:     {"interest_churn", unsafe.Offsetof(Snapshot{}.InterestChurn)},
	ShardVetoes:       {"shard_vetoes", unsafe.Offsetof(Snapshot{}.ShardVetoes)},
}

// String returns the counter's name.
func (k Counter) String() string {
	if k >= 0 && k < numCounters {
		return counters[k].name
	}
	return fmt.Sprintf("Counter(%d)", int(k))
}

// padded is a cache-line-padded atomic counter. A Collector's counters sit
// side by side in arrays; without padding, two goroutines bumping adjacent
// counters would ping-pong the same cache line between cores.
type padded struct {
	v atomic.Int64
	_ [56]byte // pad to a 64-byte line
}

// Collector gathers one process's counters. It is safe for concurrent use
// (real transports receive on multiple goroutines): every counter is an
// independent padded atomic, so hot-path increments are lock-free and
// uncontended.
type Collector struct {
	msgsSent  [wire.NumKinds]padded // indexed by wire.Kind
	durations [int(catMax)]padded   // nanoseconds, indexed by Category
	counts    [numCounters]padded
	execTime  atomic.Int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return new(Collector) }

// Add adds n to counter k.
func (c *Collector) Add(k Counter, n int) { c.counts[k].v.Add(int64(n)) }

// Max raises counter k to n if n is larger: a lock-free high-water mark.
func (c *Collector) Max(k Counter, n int) {
	v := &c.counts[k].v
	for {
		cur := v.Load()
		if int64(n) <= cur || v.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// CountSend records one outgoing frame (a marker it carries is not counted).
func (c *Collector) CountSend(m *wire.Msg, size int) {
	if m.Kind.Valid() {
		c.msgsSent[m.Kind].v.Add(1)
	}
	c.Add(BytesSent, size)
	c.Add(PayloadBytes, len(m.Payload))
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

// SetExecTime records the process's total execution time (its clock at
// completion).
func (c *Collector) SetExecTime(d time.Duration) { c.execTime.Store(int64(d)) }

// Snapshot returns an immutable copy of the collected values. Message kinds
// and time categories never touched are omitted from the maps.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		MsgsSent:  make(map[wire.Kind]int),
		Durations: make(map[Category]time.Duration),
		ExecTime:  time.Duration(c.execTime.Load()),
	}
	for k, row := range counters {
		*(*int)(unsafe.Add(unsafe.Pointer(&s), row.off)) = int(c.counts[k].v.Load())
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

// Snapshot is a frozen view of one process's metrics. Each int field but
// InterestFetches is a counter, documented at its Counter constant.
// InterestFetches is always 0: interest no longer pulls on an enter-radius
// event, and the field stays only because the benchmark still reads it.
type Snapshot struct {
	MsgsSent  map[wire.Kind]int
	Durations map[Category]time.Duration
	ExecTime  time.Duration

	BytesSent         int
	PayloadBytes      int
	Mods              int
	Ticks             int
	Retransmits       int
	Suspects          int
	Evictions         int
	Faults            int
	Joins             int
	SnapshotBytes     int
	CatchupDiffs      int
	QuorumRounds      int
	ReadRepairs       int
	ReplicaCatchups   int
	FramesSent        int
	Flushes           int
	WireBytes         int
	PiggybackedSyncs  int
	PiggybackedDones  int
	Reconnects        int
	HeartbeatsMissed  int
	SendQDepthPeak    int
	DrainFlushedBytes int
	DeltaRecords      int
	DeltaBytesSaved   int
	DeltaMismatches   int
	TicksBatched      int
	InterestSetPeak   int
	InterestChurn     int
	InterestFetches   int
	ShardVetoes       int
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
// below, the harness's panel columns and the tests read a Snapshot
// through.
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

// PayloadBytes sums sent payload bytes across processes.
func (g Group) PayloadBytes() int { return g.Sum(func(s Snapshot) int { return s.PayloadBytes }) }

// LogicalMsgs sums the paper's message count across processes.
func (g Group) LogicalMsgs() int { return g.Sum(Snapshot.LogicalMsgs) }

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
