package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sdso/internal/wire"
)

func TestCountSendSplitsClasses(t *testing.T) {
	c := NewCollector()
	c.CountSend(&wire.Msg{Kind: wire.KindSync}, 2048)
	c.CountSend(&wire.Msg{Kind: wire.KindData}, 2048)
	c.CountSend(&wire.Msg{Kind: wire.KindLockReq}, 2048)
	c.CountSend(&wire.Msg{Kind: wire.KindObjReply, Payload: make([]byte, 100)}, 2048)
	s := c.Snapshot()
	if got := s.TotalMsgs(); got != 4 {
		t.Errorf("TotalMsgs = %d", got)
	}
	if got := s.DataMsgs(); got != 2 {
		t.Errorf("DataMsgs = %d", got)
	}
	if s.BytesSent != 4*2048 {
		t.Errorf("BytesSent = %d", s.BytesSent)
	}
	if g := (Group{Procs: []Snapshot{s, s}}); s.PayloadBytes != 100 || g.PayloadBytes() != 200 {
		t.Errorf("PayloadBytes = %d, group of two = %d", s.PayloadBytes, g.PayloadBytes())
	}
}

func TestOverheadPct(t *testing.T) {
	c := NewCollector()
	c.AddTime(CatAppCompute, 20*time.Millisecond)
	c.AddTime(CatExchange, 60*time.Millisecond)
	c.AddTime(CatLockAcquire, 20*time.Millisecond)
	c.SetExecTime(100 * time.Millisecond)
	s := c.Snapshot()
	if got := s.ProtocolTime(); got != 80*time.Millisecond {
		t.Errorf("ProtocolTime = %v", got)
	}
	if got := s.OverheadPct(); got != 80.0 {
		t.Errorf("OverheadPct = %v", got)
	}

	var empty Snapshot
	if empty.OverheadPct() != 0 {
		t.Error("zero exec time should yield zero overhead")
	}
}

func TestAddTimeIgnoresNonPositive(t *testing.T) {
	c := NewCollector()
	c.AddTime(CatExchange, 0)
	c.AddTime(CatExchange, -time.Second)
	if got := c.Snapshot().ProtocolTime(); got != 0 {
		t.Errorf("ProtocolTime = %v, want 0", got)
	}
}

func TestGroupAggregation(t *testing.T) {
	mk := func(exec time.Duration, mods, data, ctrl int) Snapshot {
		c := NewCollector()
		for i := 0; i < data; i++ {
			c.CountSend(&wire.Msg{Kind: wire.KindData}, 2048)
		}
		for i := 0; i < ctrl; i++ {
			c.CountSend(&wire.Msg{Kind: wire.KindSync}, 2048)
		}
		for i := 0; i < mods; i++ {
			c.AddMod()
		}
		c.SetExecTime(exec)
		return c.Snapshot()
	}
	g := Group{Procs: []Snapshot{
		mk(100*time.Millisecond, 10, 5, 5),
		mk(200*time.Millisecond, 20, 7, 3),
	}}
	if got := g.TotalMsgs(); got != 20 {
		t.Errorf("TotalMsgs = %d", got)
	}
	if got := g.DataMsgs(); got != 12 {
		t.Errorf("DataMsgs = %d", got)
	}
	if got := g.ControlMsgs(); got != 8 {
		t.Errorf("ControlMsgs = %d", got)
	}
	if got := g.AvgExecTime(); got != 150*time.Millisecond {
		t.Errorf("AvgExecTime = %v", got)
	}
	if got := g.AvgMods(); got != 15 {
		t.Errorf("AvgMods = %v", got)
	}
	if got := g.NormalizedExecTime(); got != 10*time.Millisecond {
		t.Errorf("NormalizedExecTime = %v", got)
	}
}

func TestGroupEmpty(t *testing.T) {
	var g Group
	if g.AvgExecTime() != 0 || g.AvgMods() != 0 || g.NormalizedExecTime() != 0 ||
		g.AvgOverheadPct() != 0 || g.AvgCategoryPct(CatExchange) != 0 {
		t.Error("empty group should aggregate to zeros")
	}
}

func TestAvgCategoryPct(t *testing.T) {
	c := NewCollector()
	c.AddTime(CatLockAcquire, 30*time.Millisecond)
	c.SetExecTime(100 * time.Millisecond)
	g := Group{Procs: []Snapshot{c.Snapshot()}}
	if got := g.AvgCategoryPct(CatLockAcquire); got != 30 {
		t.Errorf("AvgCategoryPct = %v", got)
	}
}

func TestConcurrentCollector(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.CountSend(&wire.Msg{Kind: wire.KindData}, 1)
				c.AddMod()
				c.AddTick()
				c.AddTime(CatExchange, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.TotalMsgs() != 800 || s.Mods != 800 || s.Ticks != 800 {
		t.Errorf("concurrent counts: %d msgs, %d mods, %d ticks", s.TotalMsgs(), s.Mods, s.Ticks)
	}
}

func TestStringsRender(t *testing.T) {
	c := NewCollector()
	c.CountSend(&wire.Msg{Kind: wire.KindData}, 10)
	c.CountSend(&wire.Msg{Kind: wire.KindSync}, 10)
	g := Group{Procs: []Snapshot{c.Snapshot()}}
	if !strings.Contains(g.String(), "totalMsgs=2") {
		t.Errorf("String = %q", g.String())
	}
	bd := g.KindBreakdown()
	if !strings.Contains(bd, "SYNC=1") || !strings.Contains(bd, "DATA=1") {
		t.Errorf("KindBreakdown = %q", bd)
	}
	for _, cat := range Categories() {
		if cat.String() == "" {
			t.Errorf("category %d has empty name", cat)
		}
	}
}

func TestJoinCounters(t *testing.T) {
	a := NewCollector()
	a.AddJoin()
	a.AddSnapshotBytes(100)
	a.AddCatchupDiffs(3)
	b := NewCollector()
	b.AddJoin()
	b.AddJoin()
	b.AddSnapshotBytes(50)
	b.AddCatchupDiffs(0) // a no-op catch-up still counts zero diffs

	snap := a.Snapshot()
	if snap.Joins != 1 || snap.SnapshotBytes != 100 || snap.CatchupDiffs != 3 {
		t.Errorf("snapshot = %+v, want joins=1 snapshotBytes=100 catchupDiffs=3", snap)
	}
	g := Group{Procs: []Snapshot{a.Snapshot(), b.Snapshot()}}
	if got := g.Sum(func(s Snapshot) int { return s.Joins }); got != 3 {
		t.Errorf("Joins = %d, want 3", got)
	}
	if got := g.Sum(func(s Snapshot) int { return s.SnapshotBytes }); got != 150 {
		t.Errorf("SnapshotBytes = %d, want 150", got)
	}
	if got := g.Sum(func(s Snapshot) int { return s.CatchupDiffs }); got != 3 {
		t.Errorf("CatchupDiffs = %d, want 3", got)
	}
}

// TestCollectorConcurrentUse hammers every counter from several goroutines
// under -race: the atomic collector must neither race nor lose increments.
func TestCollectorConcurrentUse(t *testing.T) {
	c := NewCollector()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.CountSend(&wire.Msg{Kind: wire.KindData}, 10)
				c.AddTime(CatExchange, time.Microsecond)
				c.AddMod()
				c.AddTick()
				c.AddRetransmit()
				c.AddSuspect()
				c.AddEviction()
				c.AddFault()
				c.AddJoin()
				c.AddSnapshotBytes(2)
				c.AddCatchupDiffs(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	total := workers * perWorker
	if s.MsgsSent[wire.KindData] != total || s.BytesSent != 10*total {
		t.Errorf("sends lost: msgs=%d bytes=%d, want %d/%d", s.MsgsSent[wire.KindData], s.BytesSent, total, 10*total)
	}
	if s.Durations[CatExchange] != time.Duration(total)*time.Microsecond {
		t.Errorf("durations lost: %v", s.Durations[CatExchange])
	}
	for name, got := range map[string]int{
		"mods": s.Mods, "ticks": s.Ticks, "retransmits": s.Retransmits,
		"suspects": s.Suspects, "evictions": s.Evictions, "faults": s.Faults,
		"joins": s.Joins,
	} {
		if got != total {
			t.Errorf("%s = %d, want %d", name, got, total)
		}
	}
	if s.SnapshotBytes != 2*total || s.CatchupDiffs != total {
		t.Errorf("rejoin counters lost: bytes=%d diffs=%d", s.SnapshotBytes, s.CatchupDiffs)
	}
}
