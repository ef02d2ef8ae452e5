package metrics

import (
	"reflect"
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
			c.Add(Mods, 1)
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
				c.Add(Mods, 1)
				c.Add(Ticks, 1)
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
	a.Add(Joins, 1)
	a.Add(SnapshotBytes, 100)
	a.Add(CatchupDiffs, 3)
	b := NewCollector()
	b.Add(Joins, 1)
	b.Add(Joins, 1)
	b.Add(SnapshotBytes, 50)
	b.Add(CatchupDiffs, 0) // a no-op catch-up still counts zero diffs

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
				for k := PayloadBytes + 1; k < numCounters; k++ {
					c.Add(k, 1)
				}
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
	for k := PayloadBytes + 1; k < numCounters; k++ {
		if got := counterFields(s)[strings.ReplaceAll(k.String(), "_", "")]; got != total {
			t.Errorf("%v = %d, want %d", k, got, total)
		}
	}
}

// counterFields maps each counter field of a Snapshot, by its name lowered,
// to its value: every int field but InterestFetches.
func counterFields(s Snapshot) map[string]int {
	out := make(map[string]int)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() == reflect.Int && f.Name != "InterestFetches" {
			out[strings.ToLower(f.Name)] = int(v.Field(i).Int())
		}
	}
	return out
}

// TestCounterTable gives every counter a distinct value and reads each back
// from the Snapshot field its name spells: a counter with no field, a field
// with no counter or two counters sharing a field all fail it. Then Max
// raises one peak and leaves another that is already higher.
func TestCounterTable(t *testing.T) {
	c := NewCollector()
	for k := Counter(0); k < numCounters; k++ {
		c.Add(k, 100+int(k))
	}
	s := c.Snapshot()
	fields := counterFields(s)
	if len(fields) != int(numCounters) {
		t.Errorf("Snapshot has %d counter fields, the table %d counters", len(fields), numCounters)
	}
	for k := Counter(0); k < numCounters; k++ {
		field := strings.ReplaceAll(k.String(), "_", "")
		if got, ok := fields[field]; !ok || got != 100+int(k) {
			t.Errorf("counter %v: field %q = %d (present %v), want %d", k, field, got, ok, 100+int(k))
		}
	}
	if s.InterestFetches != 0 || s.TotalMsgs() != 0 || len(s.Durations) != 0 {
		t.Errorf("counters leaked outside their fields: %+v", s)
	}
	// Max raises a peak and never lowers it.
	c.Max(SendQDepthPeak, 1)
	c.Max(InterestSetPeak, 1000)
	if s := c.Snapshot(); s.SendQDepthPeak != 100+int(SendQDepthPeak) || s.InterestSetPeak != 1000 {
		t.Errorf("peaks after Max = %d, %d, want %d, 1000", s.SendQDepthPeak, s.InterestSetPeak, 100+int(SendQDepthPeak))
	}
}
