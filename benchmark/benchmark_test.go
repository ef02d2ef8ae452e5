package main

import (
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1) // as main does
	os.Exit(m.Run())
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(res result) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkload runs every workload end to end and traced at
// 4 players, 1 seed, 1 pass, and holds the emitted metric sets against the
// tables BENCHMARK.json is generated from, in both directions.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads(4) {
		w.warm = 0
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, options{
				seed: 1, seconds: 1, seeds: 1, passes: 1, trace: trace, batch: 100 * time.Microsecond,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.n {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if got, want := emitted(res), names(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json lists %v", w.name, trace, got, want)
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
				}
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the checked-in BENCHMARK.json equal
// to what `-spec` prints and inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want spec
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	// Round-trip the generated spec so both sides went through JSON.
	gen, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `-spec`; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range want.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Better != "lower" && d.Better != "higher" || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range want.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Better != "lower" && d.Better != "higher" {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(want.EndToEnd) > 16 || len(want.PerLayer) > 128 || len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is too large: %d end-to-end, %d per-layer, %d bytes", len(want.EndToEnd), len(want.PerLayer), len(raw))
	}
}

// TestSumOfBestFiltersBurst injects a 3x burst into all but one pass of
// each seed: the per-seed minimum does not see it, a total does.
func TestSumOfBestFiltersBurst(t *testing.T) {
	clean := [][]float64{{0.40, 0.41, 0.40, 0.42, 0.41}, {0.30, 0.31, 0.30, 0.30, 0.31}}
	burst := [][]float64{{1.20, 1.23, 0.40, 1.26, 1.23}, {0.90, 0.93, 0.90, 0.90, 0.31}}
	if got, want := sumOfBest(burst), sumOfBest(clean); math.Abs(got-want) > 0.03*want {
		t.Errorf("sum of per-seed minima with a burst = %v, clean = %v", got, want)
	}
	total := func(bySeed [][]float64) (sum float64) {
		for _, passes := range bySeed {
			for _, v := range passes {
				sum += v
			}
		}
		return sum
	}
	if total(burst) < 1.5*total(clean) {
		t.Fatal("the injected burst is too small to tell the estimators apart")
	}
}

// TestQuartileSpreadMatchesPython pins the spread to what Python's
// statistics.quantiles(v, n=4) gives: [2.75, 5.5, 8.25] for 1..10.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestTracedCountsMatchUntraced: the decorator must not change what the
// program does. Messages, wire bytes and player-ticks of a traced game
// equal the untraced game's exactly on the deterministic workloads.
func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, w := range workloads(6) {
		if w.proto != "BSYNC" && w.proto != "EC" {
			continue
		}
		g := w.gameConfig(3, w.ticks)
		var plain, traced accum
		plain.add(w.play(g, nil))
		tr := newTracer(false)
		traced.add(w.play(g, tr))
		tr.fold()
		if plain.pticks == 0 || plain.msgs == 0 {
			t.Fatalf("%s: empty game", w.name)
		}
		// Over real sockets a departing player's DONE races its peers'
		// last SYNC, so a game's message count moves by one to three when
		// the scheduling shifts (seen under the race detector only); the
		// counts repeat exactly on the mem network and the simulator.
		near := func(a, b int) bool { return a == b }
		if w.net == tcpNet {
			near = func(a, b int) bool { return max(a-b, b-a) <= a/100 }
		}
		if plain.pticks != traced.pticks || !near(plain.msgs, traced.msgs) || !near(plain.wireBytes, traced.wireBytes) ||
			!near(plain.dataMsgs, traced.dataMsgs) || !near(plain.frames, traced.frames) {
			t.Errorf("%s: traced pticks/msgs/bytes/data/frames = %d/%d/%d/%d/%d, untraced %d/%d/%d/%d/%d", w.name,
				traced.pticks, traced.msgs, traced.wireBytes, traced.dataMsgs, traced.frames,
				plain.pticks, plain.msgs, plain.wireBytes, plain.dataMsgs, plain.frames)
		}
		if sends := tr.totals[spanSend]; sends.calls == 0 || tr.totals[spanPlayer].calls != int64(w.n) {
			t.Errorf("%s: recorded %d send spans and %d player spans", w.name, sends.calls, tr.totals[spanPlayer].calls)
		}
	}
}

// peeker is an endpoint with a capability the decorator does not know.
type peeker struct{ transport.Endpoint }

func (peeker) SendMany([]int, *wire.Msg) error                 { return nil }
func (peeker) SendEncoded(int, *wire.Encoded, *wire.Msg) error { return nil }
func (peeker) Peek() *wire.Msg                                 { return nil }

// bare is an endpoint without the send fast paths.
type bare struct{ transport.Endpoint }

func TestDecoratorCapabilities(t *testing.T) {
	mem := transport.NewMemNetwork(2)
	defer mem.Close()
	mesh, _, err := dialMesh(2, make([]*metrics.Collector, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer closeMesh(mesh)
	sim := vtime.NewSim(vtime.Config{})
	proc := sim.Spawn(func(*vtime.Proc) {})
	for _, ep := range []transport.Endpoint{mem.Endpoint(0), mesh[0], transport.NewSimEndpoint(proc, 1, transport.EncodedSize)} {
		if err := checkCapabilities(ep); err != nil {
			t.Errorf("%T: %v", ep, err)
		}
	}
	if err := checkCapabilities(peeker{mem.Endpoint(0)}); err == nil || !strings.Contains(err.Error(), "Peek") {
		t.Errorf("an endpoint with an unknown capability passed: %v", err)
	}
	if err := checkCapabilities(bare{mem.Endpoint(0)}); err == nil || !strings.Contains(err.Error(), "SendMany") {
		t.Errorf("an endpoint without SendMany passed: %v", err)
	}

	// A TCP endpoint is a Flusher, a Recycler and a LivenessReporter; the
	// decorator must reach all three.
	te := newTracer(false).wrap(mesh[0]).(*tracedEndpoint)
	if te.flusher == nil {
		t.Error("decorator lost the TCP endpoint's Flush")
	}
	if err := te.Flush(); err != nil {
		t.Error(err)
	}
	if n := len(te.spans); n != 1 || te.spans[0].Kind != spanFlush {
		t.Errorf("Flush recorded %d spans", n)
	}
	if te.PeerGone(1) {
		t.Error("live peer reported gone")
	}
	te.Recycle(wire.GetMsg())
}

// TestMeshFailureDoesNotHang: a reserved port can be taken before its node
// listens again. The node fails at once, but its lower-numbered peers wait
// in Accept with no deadline; the set-up must give up (and be retried by
// dialMesh) instead of hanging.
func TestMeshFailureDoesNotHang(t *testing.T) {
	addrs, err := reserveAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	squatter, err := net.Listen("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	go func() {
		for {
			conn, err := squatter.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	start := time.Now()
	mesh, err := dialMeshAt(addrs, make([]*metrics.Collector, 3))
	if err == nil {
		closeMesh(mesh)
		t.Fatal("mesh came up on an occupied port")
	}
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Errorf("error does not name EADDRINUSE, so dialMesh would not retry: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("giving up took %v", d)
	}
}

func TestConnectionBudget(t *testing.T) {
	defer connsOpened.Store(connsOpened.Load())
	connsOpened.Store(connBudget)
	if _, _, err := dialMesh(2, make([]*metrics.Collector, 2)); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("dialing past the connection budget: %v", err)
	}
}
