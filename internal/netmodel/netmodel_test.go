package netmodel

import (
	"testing"
	"testing/quick"
	"time"

	"sdso/internal/vtime"
)

func testParams() Params {
	return Params{
		BandwidthBps: 10e6,
		Propagation:  time.Millisecond,
		SendCPU:      100 * time.Microsecond,
		RecvCPU:      100 * time.Microsecond,
		Loopback:     10 * time.Microsecond,
	}
}

func TestTxTime(t *testing.T) {
	c := NewCluster(testParams())
	// 2048 bytes at 10 Mbps = 16384 bits / 10e6 bps = 1.6384 ms.
	got := c.txTime(2048)
	want := 1638400 * time.Nanosecond
	if got != want {
		t.Errorf("txTime(2048) = %v, want %v", got, want)
	}
}

func TestDeliverySingleMessage(t *testing.T) {
	c := NewCluster(testParams())
	now := vtime.Time(0)
	got := c.Delivery(0, 1, 2048, now)
	// sendCPU + tx + prop + tx + recvCPU
	want := 100*time.Microsecond + 1638400 + 1*time.Millisecond + 1638400 + 100*time.Microsecond
	if got != want {
		t.Errorf("Delivery = %v, want %v", got, want)
	}
}

func TestUplinkSerializes(t *testing.T) {
	c := NewCluster(testParams())
	d1 := c.Delivery(0, 1, 2048, 0)
	d2 := c.Delivery(0, 2, 2048, 0)
	if d2 <= d1 {
		t.Errorf("second send on busy uplink delivered at %v, not after first %v", d2, d1)
	}
	// The second message waits one full tx time behind the first.
	if diff := d2 - d1; diff != c.txTime(2048) {
		t.Errorf("serialization gap = %v, want %v", diff, c.txTime(2048))
	}
}

func TestDownlinkSerializes(t *testing.T) {
	c := NewCluster(testParams())
	d1 := c.Delivery(1, 0, 2048, 0)
	d2 := c.Delivery(2, 0, 2048, 0)
	if d2 <= d1 {
		t.Errorf("concurrent receives did not serialize: %v then %v", d1, d2)
	}

	// A receiver's downlink is reserved in send-call order, not arrival
	// order: host 0 fans out to hosts 2, 3 and 4, then host 1 sends to
	// host 4. Host 1's frame reaches host 4's downlink at 2.288 ms, but
	// host 0's third frame, which arrives at 5.565 ms, already holds the
	// downlink, so it waits out that frame and is delivered at 8.992 ms;
	// served in arrival order it would be at 4.077 ms. ROADMAP's "the
	// downlink serves frames in arrival order" item changes this on
	// purpose.
	c = NewCluster(Ethernet10Mbps())
	for _, to := range []int{2, 3, 4} {
		c.Delivery(0, to, 2048, 0)
	}
	if got, want := c.Delivery(1, 4, 2048, 0), vtime.Time(8992*time.Microsecond); got != want {
		t.Errorf("host 1's frame behind host 0's fan-out delivered at %v, want %v", got, want)
	}
}

func TestLoopback(t *testing.T) {
	p := testParams()
	p.HostOf = func(proc int) int { return proc % 2 } // procs 0,2 on host 0; 1,3 on host 1
	c := NewCluster(p)
	if got := c.Delivery(0, 2, 2048, 0); got != p.Loopback {
		t.Errorf("co-located delivery = %v, want %v", got, p.Loopback)
	}
	if got := c.Delivery(0, 1, 64, 0); got <= p.Loopback {
		t.Errorf("remote delivery = %v, want > loopback", got)
	}
}

func TestZeroBandwidth(t *testing.T) {
	p := testParams()
	p.BandwidthBps = 0
	c := NewCluster(p)
	got := c.Delivery(0, 1, 1<<20, 0)
	want := p.SendCPU + p.Propagation + p.RecvCPU
	if got != want {
		t.Errorf("Delivery with infinite bandwidth = %v, want %v", got, want)
	}
}

func TestDeliveryNeverBeforeSend(t *testing.T) {
	f := func(from, to uint8, size uint16, nowMs uint16) bool {
		c := NewCluster(testParams())
		now := vtime.Time(nowMs) * vtime.Time(time.Millisecond)
		return c.Delivery(int(from), int(to), int(size), now) >= now
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeliveryMonotonicPerLink(t *testing.T) {
	// Successive sends on the same link at non-decreasing times must be
	// delivered in order.
	f := func(sizes []uint16) bool {
		c := NewCluster(testParams())
		last := vtime.Time(-1)
		now := vtime.Time(0)
		for _, sz := range sizes {
			d := c.Delivery(0, 1, int(sz)+1, now)
			if d <= last {
				return false
			}
			last = d
			now += vtime.Time(10 * time.Microsecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEthernet10MbpsDefaults(t *testing.T) {
	p := Ethernet10Mbps()
	if p.BandwidthBps != 10e6 {
		t.Errorf("BandwidthBps = %v, want 10e6", p.BandwidthBps)
	}
	if p.Propagation <= 0 || p.SendCPU <= 0 || p.RecvCPU <= 0 || p.Loopback <= 0 {
		t.Errorf("defaults must be positive: %+v", p)
	}
	if p.Loopback >= p.Propagation {
		t.Errorf("loopback (%v) should be cheaper than remote propagation (%v)", p.Loopback, p.Propagation)
	}
}

func TestClusterInVtimeSim(t *testing.T) {
	// End-to-end: a broadcast from one proc to 4 peers arrives serialized.
	c := NewCluster(testParams())
	s := vtime.NewSim(vtime.Config{Links: c})
	arrivals := make([]vtime.Time, 4)
	s.Spawn(func(p *vtime.Proc) {
		for i := 1; i <= 4; i++ {
			p.Send(i, "x", 2048)
		}
	})
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn(func(p *vtime.Proc) {
			m, ok := p.Recv()
			if !ok {
				t.Error("recv failed")
				return
			}
			arrivals[i] = m.Delivered
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < 4; i++ {
		if arrivals[i] <= arrivals[i-1] {
			t.Errorf("broadcast arrivals not serialized: %v", arrivals)
		}
	}
}

func TestDeliveryDeterminism(t *testing.T) {
	run := func() []vtime.Time {
		c := NewCluster(testParams())
		var out []vtime.Time
		for i := 0; i < 10; i++ {
			out = append(out, c.Delivery(i%3, (i+1)%3, 512*(i+1), vtime.Time(i)*vtime.Time(time.Millisecond)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic delivery at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestJitterPreservesPairFIFO: vtime.Jitter over a Cluster reorders
// deliveries across pairs but never within one. A clamped delivery may
// equal the previous one on its link, and vtime breaks ties by send order,
// so the check is the order a receiver sees, not strictly later times.
func TestJitterPreservesPairFIFO(t *testing.T) {
	const sends = 200
	s := vtime.NewSim(vtime.Config{Links: vtime.Jitter(NewCluster(testParams()), 7, 5*time.Millisecond)})
	s.Spawn(func(p *vtime.Proc) {
		for i := 0; i < sends; i++ {
			p.Send(1, i, 256)
			p.Compute(50 * time.Microsecond)
		}
	})
	s.Spawn(func(p *vtime.Proc) {
		for want := 0; want < sends; want++ {
			m, ok := p.Recv()
			if !ok {
				t.Error("recv failed")
				return
			}
			if got := m.Payload.(int); got != want {
				t.Errorf("pair FIFO violated: message %d received in place %d", got, want)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestJitterDeterministicAndReordering(t *testing.T) {
	run := func() []vtime.Time {
		links := vtime.Jitter(NewCluster(testParams()), 3, 10*time.Millisecond)
		var out []vtime.Time
		for i := 0; i < 50; i++ {
			out = append(out, links.Delivery(i%4, 5, 256, vtime.Time(i)*vtime.Time(100*time.Microsecond)))
		}
		return out
	}
	a, b := run(), run()
	reordered := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			reordered = true // across different sender pairs: allowed and expected
		}
	}
	if !reordered {
		t.Error("10ms jitter produced no cross-pair reordering in 50 sends")
	}
}
