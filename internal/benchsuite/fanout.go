// Fanout and frame-coalescing benchmarks (encode-once broadcast, deferred
// TCP flushing, SYNC piggybacking). The checked-in BENCH_PR4.json records
// their trajectory; regenerate it with `go run ./cmd/bench`.
package benchsuite

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"sdso/internal/core"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// fanoutMsg is the exchange-shaped message the fanout benchmarks ship: a
// beacon-sized Ints slice and a diff-batch-sized payload.
func fanoutMsg() *wire.Msg {
	return &wire.Msg{
		Kind: wire.KindData, Stamp: 42, Obj: 7,
		Ints:    []int64{3, 14, 15, 92},
		Payload: make([]byte, 256),
	}
}

// benchSink keeps the compiler from eliding the benchmarked writes.
var benchSink int

// broadcastFanout measures the encode-once path: one marshal, then a
// per-destination header patch on the shared immutable frame.
func broadcastFanout(b *testing.B, n int) {
	m := fanoutMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := wire.EncodeFrame(m)
		if err != nil {
			b.Fatal(err)
		}
		enc.SetSrc(0)
		for to := 1; to <= n; to++ {
			enc.SetDst(int32(to))
			benchSink += len(enc.Frame())
		}
		enc.Release()
	}
}

// BroadcastFanout4 fans one message out to 4 destinations, encoding once.
func BroadcastFanout4(b *testing.B) { broadcastFanout(b, 4) }

// BroadcastFanout8 fans one message out to 8 destinations, encoding once.
func BroadcastFanout8(b *testing.B) { broadcastFanout(b, 8) }

// BroadcastFanout16 fans one message out to 16 destinations, encoding once.
func BroadcastFanout16(b *testing.B) { broadcastFanout(b, 16) }

// BroadcastFanoutPerPeer16 is the pre-fanout baseline: clone and marshal
// the message once per destination, the cost generic per-peer Send loops
// paid before SendMany.
func BroadcastFanoutPerPeer16(b *testing.B) {
	m := fanoutMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for to := 1; to <= 16; to++ {
			c := m.Clone()
			c.Src, c.Dst = 0, int32(to)
			buf, err := c.AppendBinary(nil)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(buf)
		}
	}
}

// benchFreeAddrs reserves n distinct loopback addresses.
func benchFreeAddrs(b testing.TB, n int) []string {
	b.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("reserve port: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// benchTCPMesh dials a full TCP mesh with one config per endpoint.
func benchTCPMesh(b testing.TB, addrs []string, cfgs []transport.TCPConfig) []*transport.TCPEndpoint {
	b.Helper()
	n := len(addrs)
	eps := make([]*transport.TCPEndpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = transport.DialTCPConfig(i, addrs, cfgs[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("DialTCPConfig(%d): %v", i, err)
		}
	}
	return eps
}

// benchCloseAll tears a mesh down concurrently: sequential closes would
// leave the first endpoint's read loops blocked on still-open peers until
// the close grace expires.
func benchCloseAll(eps []*transport.TCPEndpoint) {
	var wg sync.WaitGroup
	for _, ep := range eps {
		ep := ep
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Close()
		}()
	}
	wg.Wait()
}

// TCPLoopbackExchange measures exchange-shaped round trips over a real TCP
// loopback pair with deferred flushing: a DATA and a SYNC coalesce into one
// flush, the peer answers with its SYNC, and the iteration completes when
// the answer arrives.
func TCPLoopbackExchange(b *testing.B) {
	addrs := benchFreeAddrs(b, 2)
	cfg := transport.TCPConfig{FlushThreshold: 32 << 10}
	eps := benchTCPMesh(b, addrs, []transport.TCPConfig{cfg, cfg})
	defer func() {
		b.StopTimer()
		benchCloseAll(eps)
	}()
	go func() {
		for {
			m, err := eps[1].Recv()
			if err != nil {
				return
			}
			if m.Kind == wire.KindSync {
				reply := &wire.Msg{Kind: wire.KindSync, Stamp: m.Stamp}
				if err := eps[1].Send(0, reply); err != nil {
					return
				}
				if err := eps[1].Flush(); err != nil {
					return
				}
			}
			eps[1].Recycle(m)
		}
	}()
	data := fanoutMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.Stamp = int64(i)
		if err := eps[0].Send(1, data); err != nil {
			b.Fatal(err)
		}
		sync := &wire.Msg{Kind: wire.KindSync, Stamp: int64(i)}
		if err := eps[0].Send(1, sync); err != nil {
			b.Fatal(err)
		}
		if err := eps[0].Flush(); err != nil {
			b.Fatal(err)
		}
		m, err := eps[0].Recv()
		if err != nil {
			b.Fatal(err)
		}
		eps[0].Recycle(m)
	}
}

// framesPerExchange runs a 2-process lockstep game over loopback TCP and
// returns the per-process physical frames and wire bytes per exchange tick.
func framesPerExchange(b testing.TB) (frames, bytes float64) {
	b.Helper()
	const ticks = 100
	addrs := benchFreeAddrs(b, 2)
	wireMCs := []*metrics.Collector{metrics.NewCollector(), metrics.NewCollector()}
	cfgs := []transport.TCPConfig{
		{FlushThreshold: 32 << 10, Metrics: wireMCs[0]},
		{FlushThreshold: 32 << 10, Metrics: wireMCs[1]},
	}
	eps := benchTCPMesh(b, addrs, cfgs)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = func() error {
				rt, err := core.New(core.Config{Endpoint: eps[i], MergeDiffs: true})
				if err != nil {
					return err
				}
				for obj := 0; obj < 2; obj++ {
					if err := rt.Share(store.ID(obj), make([]byte, 8)); err != nil {
						return err
					}
				}
				state := make([]byte, 8)
				for k := 1; k <= ticks; k++ {
					binary.BigEndian.PutUint64(state, uint64(k))
					if err := rt.Write(store.ID(i), state); err != nil {
						return err
					}
					opts := core.ExchangeOpts{
						Resync: true,
						SFunc:  core.EveryTick,
						Beacon: func(peer int) []int64 { return []int64{int64(i), rt.Now()} },
					}
					if err := rt.Exchange(opts); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("player %d: %v", i, err)
		}
	}
	benchCloseAll(eps)
	var fr, by int
	for _, mc := range wireMCs {
		s := mc.Snapshot()
		fr += s.FramesSent
		by += s.WireBytes
	}
	return float64(fr) / (2 * ticks), float64(by) / (2 * ticks)
}

// FramesPerExchange measures the physical cost of one exchange tick over
// TCP: one frame in steady state, DATA carrying the SYNC marker. The keys
// keep the "_piggyback" suffix BENCH_PR4.json recorded this form under.
func FramesPerExchange(b *testing.B) {
	b.ReportAllocs()
	var frames, bytes float64
	for i := 0; i < b.N; i++ {
		frames, bytes = framesPerExchange(b)
	}
	b.ReportMetric(frames, "frames/exchange_piggyback")
	b.ReportMetric(bytes, "wirebytes/exchange_piggyback")
}
