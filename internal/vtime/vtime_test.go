package vtime

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleProcCompute(t *testing.T) {
	s := NewSim(Config{})
	p := s.Spawn(func(p *Proc) {
		p.Compute(10 * time.Millisecond)
		p.Compute(5 * time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := p.Now(), 15*time.Millisecond; got != want {
		t.Errorf("Now() = %v, want %v", got, want)
	}
	if got := p.Stats().ComputeTime; got != 15*time.Millisecond {
		t.Errorf("ComputeTime = %v, want 15ms", got)
	}
}

func TestPingPong(t *testing.T) {
	const delay = time.Millisecond
	s := NewSim(Config{Links: ConstantDelay(delay)})
	var got []string
	s.Spawn(func(p *Proc) { // proc 0: ping
		p.Send(1, "ping", 100)
		m, ok := p.Recv()
		if !ok {
			t.Error("recv failed")
			return
		}
		got = append(got, fmt.Sprintf("0 got %v at %v", m.Payload, p.Now()))
	})
	s.Spawn(func(p *Proc) { // proc 1: pong
		m, ok := p.Recv()
		if !ok {
			t.Error("recv failed")
			return
		}
		got = append(got, fmt.Sprintf("1 got %v at %v", m.Payload, p.Now()))
		p.Send(0, "pong", 100)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"1 got ping at 1ms", "0 got pong at 2ms"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRecvOrdersByDeliveryTime(t *testing.T) {
	s := NewSim(Config{Links: ConstantDelay(0)})
	var order []int
	s.Spawn(func(p *Proc) { // receiver blocks until both messages arrive
		p.Compute(10 * time.Millisecond)
		for i := 0; i < 2; i++ {
			m, ok := p.Recv()
			if !ok {
				t.Error("recv failed")
				return
			}
			order = append(order, m.From)
		}
	})
	s.Spawn(func(p *Proc) { // sends second in wall order but earlier in vtime
		p.Compute(2 * time.Millisecond)
		p.Send(0, "early", 1)
	})
	s.Spawn(func(p *Proc) {
		p.Compute(5 * time.Millisecond)
		p.Send(0, "late", 1)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("receive order = %v, want [1 2]", order)
	}
}

func TestBlockedTimeAccounting(t *testing.T) {
	s := NewSim(Config{Links: ConstantDelay(0)})
	p0 := s.Spawn(func(p *Proc) {
		if _, ok := p.Recv(); !ok {
			t.Error("recv failed")
		}
	})
	s.Spawn(func(p *Proc) {
		p.Compute(7 * time.Millisecond)
		p.Send(0, nil, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := p0.Stats().BlockedTime; got != 7*time.Millisecond {
		t.Errorf("BlockedTime = %v, want 7ms", got)
	}
	if got := p0.Now(); got != 7*time.Millisecond {
		t.Errorf("Now = %v, want 7ms", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSim(Config{})
	s.Spawn(func(p *Proc) { p.Recv() })
	s.Spawn(func(p *Proc) { p.Recv() })
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	// The blocked processes are released, not left parked past Run. A
	// released goroutine still has to exit, so wait a bounded while.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before: the deadlocked processes leaked", runtime.NumGoroutine(), before)
		}
	}
}

func TestHorizonAborts(t *testing.T) {
	s := NewSim(Config{Horizon: 50 * time.Millisecond})
	s.Spawn(func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Compute(time.Millisecond)
		}
	})
	if err := s.Run(); !errors.Is(err, ErrHorizon) {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
}

func TestMessageToFinishedProcDropped(t *testing.T) {
	s := NewSim(Config{Links: ConstantDelay(time.Millisecond)})
	s.Spawn(func(p *Proc) {}) // exits immediately
	s.Spawn(func(p *Proc) {
		p.Compute(time.Millisecond)
		p.Send(0, "too late", 1)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTieBreakByProcID(t *testing.T) {
	// Two procs runnable at the same instant must run in ID order.
	s := NewSim(Config{})
	var order []int
	for i := 0; i < 4; i++ {
		s.Spawn(func(p *Proc) {
			p.Compute(time.Millisecond) // all reach 1ms together
			order = append(order, p.ID())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("run order = %v, want ascending IDs", order)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewSim(Config{Links: ConstantDelay(0)})
	p0 := s.Spawn(func(p *Proc) {
		p.Send(1, "a", 10)
		p.Send(1, "b", 20)
	})
	p1 := s.Spawn(func(p *Proc) {
		p.Recv()
		p.Recv()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := p0.Stats()
	if st.Sent != 2 || st.SentBytes != 30 {
		t.Errorf("sender stats = %+v, want Sent=2 SentBytes=30", st)
	}
	if got := p1.Stats().Received; got != 2 {
		t.Errorf("Received = %d, want 2", got)
	}
}

// runLattice runs a randomized communication pattern and returns a trace
// string; used to check determinism across repeated runs.
func runLattice(seed int64, n, rounds int) string {
	rng := rand.New(rand.NewSource(seed))
	// Precompute a deterministic schedule: per proc per round, a compute
	// duration and a target.
	type step struct {
		d      time.Duration
		target int
	}
	plan := make([][]step, n)
	for i := range plan {
		plan[i] = make([]step, rounds)
		for r := range plan[i] {
			plan[i][r] = step{
				d:      time.Duration(rng.Intn(5)+1) * time.Millisecond,
				target: rng.Intn(n),
			}
		}
	}
	s := NewSim(Config{Links: ConstantDelay(500 * time.Microsecond)})
	trace := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			for r := 0; r < rounds; r++ {
				st := plan[i][r]
				p.Compute(st.d)
				if st.target != i {
					p.Send(st.target, r, 64)
				}
			}
			// Drain whatever arrived, recording order.
			for {
				m, ok := p.TryRecv()
				if !ok {
					break
				}
				trace[i] += fmt.Sprintf("(%d@%v)", m.From, m.Delivered)
			}
			trace[i] += fmt.Sprintf("end@%v", p.Now())
		})
	}
	if err := s.Run(); err != nil {
		return "err:" + err.Error()
	}
	out := ""
	for _, tr := range trace {
		out += tr + ";"
	}
	return out
}

func TestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a := runLattice(seed, 5, 8)
		b := runLattice(seed, 5, 8)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestClockMonotonicity(t *testing.T) {
	// Property: a process's clock never decreases, and a received message
	// is never delivered before it was sent.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		s := NewSim(Config{Links: ConstantDelay(time.Duration(rng.Intn(3)+1) * time.Millisecond)})
		ok := true
		for i := 0; i < n; i++ {
			s.Spawn(func(p *Proc) {
				last := Time(0)
				for r := 0; r < 10; r++ {
					p.Compute(time.Duration(rng.Intn(4)) * time.Millisecond)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
					p.Send((p.ID()+1)%n, r, 32)
					m, okRecv := p.Recv()
					if !okRecv {
						return
					}
					if m.Delivered < m.SentAt {
						ok = false
					}
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestYield(t *testing.T) {
	// Yield keeps the clock still; a process that computed past another's
	// clock and then yields lets the lower-clock process run first.
	s := NewSim(Config{})
	var order []string
	s.Spawn(func(p *Proc) {
		p.Compute(2 * time.Millisecond)
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn(func(p *Proc) {
		p.Compute(time.Millisecond)
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"b1", "a1", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	s := NewSim(Config{})
	s.Spawn(func(p *Proc) {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Run did not panic")
		}
	}()
	s.Spawn(func(p *Proc) {})
}
