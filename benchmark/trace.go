package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanPlayer  spanKind = iota // one RunPlayer / RunApp call
	spanSend                    // Send, SendMany, SendEncoded
	spanRecv                    // Recv, RecvTimeout: rendezvous wait
	spanTryRecv                 // TryRecv: non-blocking poll
	spanFlush                   // Flush barrier
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"player", "send", "recv", "tryrecv", "flush"}

// span is one call across a layer boundary. It is pointer-free and small:
// a traced n=128 game records some 300 000 of them.
type span struct {
	Start int64  // ns since the tracer was created
	Dur   int64  // ns
	Bytes int32  // encoded size of the message a send span carries
	Msgs  uint16 // wire messages a send span produced (fanout)
	Kind  spanKind
}

// dumpedSpan is a span as the -spans file holds it. A transport span's
// parent is the player span with the same game and endpoint; all spans of
// one game share its game number.
type dumpedSpan struct {
	Kind     string `json:"kind"`
	Game     int32  `json:"game"`
	Endpoint int32  `json:"endpoint"`
	StartNs  int64  `json:"start_ns"`
	DurNs    int64  `json:"dur_ns"`
	Msgs     uint16 `json:"msgs,omitempty"`
	Bytes    int32  `json:"bytes,omitempty"`
}

// spanTotals aggregates spans of one kind.
type spanTotals struct {
	calls int64
	dur   time.Duration
}

// tracer records spans from the benchmark's side of the transport
// interface: a decorator around every Endpoint plus one span per player.
// Spans stay in memory; fold aggregates a finished game's spans and, when
// keep is set, retains them for the -spans dump written at exit.
type tracer struct {
	base time.Time
	keep bool
	game int32

	mu      sync.Mutex
	eps     []*tracedEndpoint
	players map[int32]span // by endpoint
	// free holds span buffers of folded games for the next game's
	// endpoints, so steady-state tracing allocates nothing per span.
	free [][]span

	totals   [numSpanKinds]spanTotals
	msgSizes map[int32]int64 // encoded size -> messages sent
	sample   []*wire.Msg     // the first game's sampled sent messages
	kept     []dumpedSpan
}

// sampleStride and sampleCap bound the recorded message mix the isolated
// panel replays: in the first traced game each endpoint keeps every 16th
// message it sends, up to 64.
const (
	sampleStride = 16
	sampleCap    = 64
)

func newTracer(keep bool) *tracer {
	return &tracer{
		base: time.Now(), keep: keep,
		players: make(map[int32]span), msgSizes: make(map[int32]int64),
	}
}

// now is the tracer's clock; on a nil tracer it reads 0, so untraced games
// share the call sites that bracket a player's run.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// endPlayer records the span of the player on endpoint, begun at start.
func (t *tracer) endPlayer(endpoint int, start int64) {
	if t == nil {
		return
	}
	s := span{Kind: spanPlayer, Start: start, Dur: t.now() - start}
	t.mu.Lock()
	t.players[int32(endpoint)] = s
	t.mu.Unlock()
}

// fold aggregates the spans of the game that just finished and starts the
// next game.
func (t *tracer) fold() {
	t.mu.Lock()
	defer t.mu.Unlock()
	add := func(endpoint int32, s span) {
		tot := &t.totals[s.Kind]
		tot.calls++
		tot.dur += time.Duration(s.Dur)
		if s.Kind == spanSend {
			t.msgSizes[s.Bytes] += int64(s.Msgs)
		}
		if t.keep {
			t.kept = append(t.kept, dumpedSpan{
				Kind: spanNames[s.Kind], Game: t.game, Endpoint: endpoint,
				StartNs: s.Start, DurNs: s.Dur, Msgs: s.Msgs, Bytes: s.Bytes,
			})
		}
	}
	for endpoint, s := range t.players {
		add(endpoint, s)
	}
	for _, ep := range t.eps {
		for _, s := range ep.spans {
			add(ep.id, s)
		}
		t.sample = append(t.sample, ep.sample...)
		t.free = append(t.free, ep.spans[:0])
	}
	clear(t.players)
	t.eps = t.eps[:0]
	t.game++
}

// sizeQuantile returns the q-quantile of the sent-message encoded sizes.
func (t *tracer) sizeQuantile(q float64) float64 {
	sizes := make([]int32, 0, len(t.msgSizes))
	var total int64
	for size, n := range t.msgSizes {
		sizes = append(sizes, size)
		total += n
	}
	slices.Sort(sizes)
	var seen int64
	for _, size := range sizes {
		seen += t.msgSizes[size]
		if float64(seen) >= q*float64(total) {
			return float64(size)
		}
	}
	return 0
}

// dump writes the retained spans as one JSON array.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.kept); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEndpoint decorates a transport.Endpoint with one span per call.
// It forwards every optional capability of the transports in this
// repository; dropping one would silently reroute the program (SendMany
// would fall back to per-peer clones, Recycle would stop pooling).
type tracedEndpoint struct {
	t       *tracer
	inner   transport.Endpoint
	multi   transport.MultiSender
	enc     transport.EncodedSender
	flusher transport.Flusher // nil when inner delivers eagerly
	id      int32

	// Appended only from the goroutine that owns the endpoint.
	spans  []span
	sent   int
	sample []*wire.Msg
}

var (
	_ transport.Endpoint         = (*tracedEndpoint)(nil)
	_ transport.MultiSender      = (*tracedEndpoint)(nil)
	_ transport.EncodedSender    = (*tracedEndpoint)(nil)
	_ transport.Flusher          = (*tracedEndpoint)(nil)
	_ transport.Recycler         = (*tracedEndpoint)(nil)
	_ transport.LivenessReporter = (*tracedEndpoint)(nil)
)

// notCapabilities are exported endpoint methods the runtime never reaches
// through the Endpoint it is handed: lifecycle controls and accessors used
// by whoever built the endpoint.
var notCapabilities = map[string]bool{"Proc": true, "Drain": true, "Abort": true}

// checkCapabilities fails when ep has an exported method the decorator
// neither forwards nor lists as a non-capability, or lacks the send fast
// paths the decorator advertises on its behalf.
func checkCapabilities(ep transport.Endpoint) error {
	have := reflect.TypeOf((*tracedEndpoint)(nil))
	typ := reflect.TypeOf(ep)
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if _, ok := have.MethodByName(name); !ok && !notCapabilities[name] {
			return fmt.Errorf("trace: %s has method %s, which the tracing decorator does not forward", typ, name)
		}
	}
	if _, ok := ep.(transport.MultiSender); !ok {
		return fmt.Errorf("trace: %s lacks SendMany, which the tracing decorator advertises", typ)
	}
	if _, ok := ep.(transport.EncodedSender); !ok {
		return fmt.Errorf("trace: %s lacks SendEncoded, which the tracing decorator advertises", typ)
	}
	return nil
}

// wrap decorates ep. An endpoint type the decorator cannot represent
// faithfully is a bug in the benchmark, so it panics.
func (t *tracer) wrap(ep transport.Endpoint) transport.Endpoint {
	if err := checkCapabilities(ep); err != nil {
		panic(err)
	}
	te := &tracedEndpoint{
		t: t, inner: ep, id: int32(ep.ID()),
		multi: ep.(transport.MultiSender), enc: ep.(transport.EncodedSender),
	}
	te.flusher, _ = ep.(transport.Flusher)
	t.mu.Lock()
	if n := len(t.free); n > 0 {
		te.spans, t.free = t.free[n-1], t.free[:n-1]
	}
	t.eps = append(t.eps, te)
	t.mu.Unlock()
	return te
}

func (e *tracedEndpoint) end(kind spanKind, start int64) {
	e.spans = append(e.spans, span{Kind: kind, Start: start, Dur: e.t.now() - start})
}

// observe sizes m and samples the first game's message mix. It runs
// before the send: once sent over the mem network, m belongs to the
// receiver.
func (e *tracedEndpoint) observe(m *wire.Msg) int32 {
	if e.t.game == 0 && e.sent%sampleStride == 0 && len(e.sample) < sampleCap {
		e.sample = append(e.sample, m.Clone())
	}
	e.sent++
	return int32(m.EncodedSize())
}

// endSend closes a send span that put copies wire copies of a bytes-long
// message on the network.
func (e *tracedEndpoint) endSend(start int64, bytes int32, copies int) {
	e.spans = append(e.spans, span{
		Kind: spanSend, Start: start, Dur: e.t.now() - start, Bytes: bytes, Msgs: uint16(copies),
	})
}

func (e *tracedEndpoint) ID() int { return e.inner.ID() }
func (e *tracedEndpoint) N() int  { return e.inner.N() }

func (e *tracedEndpoint) Send(to int, m *wire.Msg) error {
	bytes := e.observe(m)
	start := e.t.now()
	err := e.inner.Send(to, m)
	e.endSend(start, bytes, 1)
	return err
}

func (e *tracedEndpoint) SendMany(dsts []int, m *wire.Msg) error {
	bytes := e.observe(m)
	start := e.t.now()
	err := e.multi.SendMany(dsts, m)
	e.endSend(start, bytes, len(dsts))
	return err
}

func (e *tracedEndpoint) SendEncoded(to int, enc *wire.Encoded, m *wire.Msg) error {
	bytes := e.observe(m)
	start := e.t.now()
	err := e.enc.SendEncoded(to, enc, m)
	e.endSend(start, bytes, 1)
	return err
}

func (e *tracedEndpoint) Recv() (*wire.Msg, error) {
	start := e.t.now()
	m, err := e.inner.Recv()
	e.end(spanRecv, start)
	return m, err
}

func (e *tracedEndpoint) RecvTimeout(d time.Duration) (*wire.Msg, bool, error) {
	start := e.t.now()
	m, ok, err := e.inner.RecvTimeout(d)
	e.end(spanRecv, start)
	return m, ok, err
}

func (e *tracedEndpoint) TryRecv() (*wire.Msg, bool, error) {
	start := e.t.now()
	m, ok, err := e.inner.TryRecv()
	e.end(spanTryRecv, start)
	return m, ok, err
}

// Flush records a span only where there is something to flush; on the
// eagerly delivering transports the runtime's barrier is a no-op.
func (e *tracedEndpoint) Flush() error {
	if e.flusher == nil {
		return nil
	}
	start := e.t.now()
	err := e.flusher.Flush()
	e.end(spanFlush, start)
	return err
}

func (e *tracedEndpoint) Recycle(m *wire.Msg)     { transport.Recycle(e.inner, m) }
func (e *tracedEndpoint) PeerGone(peer int) bool  { return transport.PeerGone(e.inner, peer) }
func (e *tracedEndpoint) Now() time.Duration      { return e.inner.Now() }
func (e *tracedEndpoint) Compute(d time.Duration) { e.inner.Compute(d) }
func (e *tracedEndpoint) Close() error            { return e.inner.Close() }
