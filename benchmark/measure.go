package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"sdso/internal/game"
	"sdso/internal/harness"
	"sdso/internal/metrics"
	"sdso/internal/wire"
)

// options are one run's inputs. seed is the only knob that changes what
// the program under test is given.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// seeds, when positive, overrides how many game seeds a pass plays,
	// and passes fixes every pass count instead of filling seconds; the
	// tests shrink both.
	seeds, passes int
	// spans, when set, is where the traced run dumps its spans at exit.
	spans string
	// batch is how long one timed batch of the isolated panel runs; zero
	// means 10 ms. The tests shorten it.
	batch time.Duration
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. An operation is one player-run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// sumOfBest is the wall-clock estimator: per seed, the fastest of its
// passes; a workload's figure is the sum over seeds. Interference on a
// shared box only ever adds time, and its episodes often outlast half a
// run, so the minimum repeats where a median does not (README.md,
// "Run discipline"); a burst is filtered as long as it spares one pass of
// each seed. Totals and means are never used for a wall-clock metric.
func sumOfBest(bySeed [][]float64) float64 {
	sum := 0.0
	for _, passes := range bySeed {
		if len(passes) > 0 {
			sum += slices.Min(passes)
		}
	}
	return sum
}

// timing holds per-seed, per-pass game windows and player-ticks.
type timing struct {
	wall, pticks [][]float64
}

func newTiming(seeds int) *timing {
	return &timing{wall: make([][]float64, seeds), pticks: make([][]float64, seeds)}
}

func (t *timing) add(seed int, p *played) {
	t.wall[seed] = append(t.wall[seed], p.wall.Seconds())
	t.pticks[seed] = append(t.pticks[seed], float64(p.pticks()))
}

// pticksPerSec divides the player-ticks of one pass (the per-seed median:
// only MSYNC2 games vary between passes) by the best game windows.
func (t *timing) pticksPerSec() float64 {
	ticks := 0.0
	for _, passes := range t.pticks {
		ticks += median(passes)
	}
	return ticks / sumOfBest(t.wall)
}

// accum sums the counters of the games added to it.
type accum struct {
	games, players         int
	pticks, mods           int
	mallocs, bytes         uint64
	gcs                    uint32
	cpu                    time.Duration
	msgs, dataMsgs         int
	lockMsgs, wireBytes    int
	deltaSaved             int
	frames, tcpBytes       int
	churn, fetches, vetoes int
	setPeak, meshRetries   int
	dur                    map[metrics.Category]time.Duration
	exec                   time.Duration
	wallMs                 []float64
	virtMs                 float64 // summed; simNet games only
}

func (a *accum) add(p *played) {
	if a.dur == nil {
		a.dur = make(map[metrics.Category]time.Duration)
	}
	a.games++
	a.players += len(p.snaps)
	a.mallocs += p.mallocs
	a.bytes += p.bytes
	a.gcs += p.gcs
	a.cpu += p.cpu
	a.meshRetries += p.meshRetries
	a.wallMs = append(a.wallMs, float64(p.wall)/float64(time.Millisecond))
	a.virtMs += p.virtMs
	for _, s := range p.snaps {
		a.pticks += s.Ticks
		a.mods += s.Mods
		a.msgs += s.TotalMsgs()
		a.dataMsgs += s.DataMsgs()
		a.lockMsgs += s.MsgsSent[wire.KindLockReq] + s.MsgsSent[wire.KindLockGrant] + s.MsgsSent[wire.KindLockRelease]
		a.wireBytes += s.BytesSent
		a.deltaSaved += s.DeltaBytesSaved
		a.frames += s.FramesSent
		a.tcpBytes += s.WireBytes
		a.churn += s.InterestChurn
		a.fetches += s.InterestFetches
		a.vetoes += s.ShardVetoes
		a.setPeak = max(a.setPeak, s.InterestSetPeak)
		a.exec += s.ExecTime
		for cat, d := range s.Durations {
			a.dur[cat] += d
		}
	}
}

func (a *accum) perPtick(v float64) float64 { return ratio(v, float64(a.pticks)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// run is the state of one benchmark run of one workload.
type run struct {
	w    *workload
	o    options
	cfgs []game.Config
	// refs is what each seed's games are compared with: the lockstep
	// reference on the lookahead workloads, the seed's first game on the
	// simulator, which is deterministic.
	refs [][]game.TeamStats

	attempted, failed int
	// refChecked and refMismatch count the lookahead players compared with
	// the lockstep reference and those that differ. BSYNC must reproduce
	// it, so there a mismatch is also a failure; under MSYNC2 it is only
	// reported (see README.md, "Findings").
	refChecked, refMismatch int
	complaints              int
}

func newRun(w *workload, o options) (*run, error) {
	if o.seeds <= 0 {
		o.seeds = w.seeds
	}
	r := &run{w: w, o: o, refs: make([][]game.TeamStats, o.seeds)}
	for k := 0; k < o.seeds; k++ {
		g := w.gameConfig(o.seed*int64(w.seeds)+int64(k), w.ticks)
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, g.Seed, err)
		}
		r.cfgs = append(r.cfgs, g)
	}
	return r, nil
}

func (r *run) complain(format string, args ...any) {
	if r.complaints++; r.complaints <= 10 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", r.w.name, fmt.Sprintf(format, args...))
	}
}

// sameOutcome compares the fields a protocol must reproduce. Destroyed is
// left out: it differs from the reference when a tank is hit on the final
// tick (see README.md, "Findings").
func sameOutcome(a, b game.TeamStats) bool {
	return a.Mods == b.Mods && a.Ticks == b.Ticks && a.Score == b.Score && a.ReachedGoal == b.ReachedGoal
}

// check counts p's players as attempted and its wrong ones as failed.
// Probe games (one tick) are checked for errors only.
func (r *run) check(seed int, p *played, probe bool) {
	r.attempted += len(p.errs)
	var ref []game.TeamStats
	if !probe {
		ref = r.reference(seed, p)
	}
	for i, err := range p.errs {
		switch {
		case err != nil:
			r.failed++
			r.complain("seed %d player %d: %v", r.cfgs[seed].Seed, i, err)
		case ref == nil:
		case r.w.net == simNet:
			if p.stats[i] != ref[i] {
				r.failed++
				r.complain("seed %d player %d: stats %+v, first pass had %+v", r.cfgs[seed].Seed, i, p.stats[i], ref[i])
			}
		default:
			r.refChecked++
			if !sameOutcome(p.stats[i], ref[i]) {
				r.refMismatch++
				if r.w.proto == harness.BSYNC {
					r.failed++
					r.complain("seed %d player %d: stats %+v, reference has %+v", r.cfgs[seed].Seed, i, p.stats[i], ref[i])
				}
			}
		}
	}
}

// reference returns what a full game of the seed is compared with,
// computing it on first use.
func (r *run) reference(seed int, p *played) []game.TeamStats {
	if r.refs[seed] == nil && r.w.net == simNet && len(p.stats) == len(p.errs) {
		r.refs[seed] = p.stats
	}
	if r.refs[seed] == nil && r.w.net != simNet {
		res, err := game.RunReference(r.cfgs[seed])
		if err != nil {
			r.complain("seed %d: reference: %v", r.cfgs[seed].Seed, err)
			return nil
		}
		r.refs[seed] = res.Stats
	}
	return r.refs[seed]
}

// pass plays every seed once. A timed game is preceded by an untimed
// runtime.GC so each starts from the same heap.
func (r *run) pass(tr *tracer, each func(seed int, p *played)) {
	for k, g := range r.cfgs {
		runtime.GC()
		p := r.w.play(g, tr)
		if tr != nil {
			tr.fold()
		}
		r.check(k, p, false)
		if each != nil {
			each(k, p)
		}
	}
}

// probePass times one probe game per seed into bySeed: the workload's exact
// configuration with MaxTicks=1, from before network construction through
// n x world generation, Share of every block and the first rendezvous to
// teardown.
func (r *run) probePass(bySeed [][]float64) {
	for k, g := range r.cfgs {
		g.MaxTicks = 1
		runtime.GC()
		t0 := time.Now()
		p := r.w.play(g, nil)
		bySeed[k] = append(bySeed[k], time.Since(t0).Seconds())
		r.check(k, p, true)
	}
}

// more reports whether another pass (full, probe or traced pair) should
// start: at least atLeast, then until the budget or the cap is spent.
func (r *run) more(start time.Time, done, atLeast, atMost int, budget float64) bool {
	if r.o.passes > 0 {
		return done < r.o.passes
	}
	return done < atLeast || done < atMost && time.Since(start).Seconds() < budget
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fullPasses is how many times the untraced run plays every seed's game in
// full. The counts repeat (exactly, where the protocol is deterministic),
// so two passes are enough; the rest of --seconds goes to set-up probes.
const fullPasses = 2

// endToEndRun is the untraced run: warm-up, the full passes behind the
// count metrics, set-up probe passes until --seconds are over, then the
// untimed virtual replay. setup_s is this run's only wall-clock metric, and
// a probe game is short, so the more probes a seed gets and the longer they
// span, the likelier one of them meets the box in a quiet moment
// (README.md, "Run discipline").
func (r *run) endToEndRun() map[string]float64 {
	for i := 0; i < r.w.warm; i++ {
		r.pass(nil, nil)
	}

	start := time.Now()
	var sum accum
	for full := 0; r.more(start, full, fullPasses, fullPasses, 0); full++ {
		r.pass(nil, func(_ int, p *played) { sum.add(p) })
	}
	setup := make([][]float64, len(r.cfgs))
	probes := 0
	for ; r.more(start, probes, 3, r.w.maxProbes, r.o.seconds); probes++ {
		r.probePass(setup)
		coolDown()
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d full and %d probe passes of %d seeds in %.1f s\n",
		r.w.name, sum.games/len(r.cfgs), probes, len(r.cfgs), time.Since(start).Seconds())
	rss := peakRSSMB()

	virt := ratio(sum.virtMs, float64(sum.games))
	if r.w.net != simNet {
		virt = 0
		for _, g := range r.cfgs {
			res, err := harness.Run(r.w.simConfig(g))
			if err != nil {
				r.attempted += r.w.n
				r.failed += r.w.n
				r.complain("seed %d: virtual replay: %v", g.Seed, err)
				continue
			}
			virt += harness.MetricNormalizedTime(res) / float64(len(r.cfgs))
		}
	}
	return map[string]float64{
		"setup_s":               sumOfBest(setup),
		"allocs_per_ptick":      sum.perPtick(float64(sum.mallocs)),
		"alloc_bytes_per_ptick": sum.perPtick(float64(sum.bytes)),
		"msgs_per_ptick":        sum.perPtick(float64(sum.msgs)),
		"wire_bytes_per_ptick":  sum.perPtick(float64(sum.wireBytes)),
		"virt_ms_per_mod":       virt,
		"peak_rss_mb":           rss,
	}
}

// tracedRun alternates untraced and traced passes over half the budget,
// then runs the isolated panel on inputs recorded from the first seed.
func (r *run) tracedRun() (map[string]float64, error) {
	r.pass(nil, nil)
	tr := newTracer(r.o.spans != "")
	plain, traced := newTiming(len(r.cfgs)), newTiming(len(r.cfgs))
	var sum, plainSum accum
	pairs := 0
	for start := time.Now(); r.more(start, pairs, 2, r.w.maxPairs, r.o.seconds/2); pairs++ {
		r.pass(nil, func(k int, p *played) {
			plain.add(k, p)
			plainSum.add(p)
		})
		r.pass(tr, func(k int, p *played) {
			traced.add(k, p)
			sum.add(p)
		})
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d pairs of an untraced and a traced pass of %d seeds\n", r.w.name, pairs, len(r.cfgs))
	if r.o.spans != "" {
		if err := tr.dump(r.o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	player := tr.totals[spanPlayer].dur
	send, recv, try, flush := tr.totals[spanSend], tr.totals[spanRecv], tr.totals[spanTryRecv], tr.totals[spanFlush]
	self := player - send.dur - recv.dur - try.dur - flush.dur
	m := map[string]float64{
		"lookahead.player_us_per_ptick":      sum.perPtick(us(player)),
		"lookahead.self_us_per_ptick":        sum.perPtick(us(self)),
		"lookahead.ref_mismatch_share":       ratio(float64(r.refMismatch), float64(r.refChecked)),
		"transport.send_us_per_ptick":        sum.perPtick(us(send.dur)),
		"transport.send_calls_per_ptick":     sum.perPtick(float64(send.calls)),
		"transport.flush_us_per_ptick":       sum.perPtick(us(flush.dur)),
		"transport.flush_calls_per_ptick":    sum.perPtick(float64(flush.calls)),
		"transport.recv_wait_us_per_ptick":   sum.perPtick(us(recv.dur)),
		"transport.recv_calls_per_ptick":     sum.perPtick(float64(recv.calls + try.calls)),
		"transport.msg_bytes_p50":            tr.sizeQuantile(0.50),
		"transport.msg_bytes_p99":            tr.sizeQuantile(0.99),
		"transport.tcp_frames_per_ptick":     sum.perPtick(float64(sum.frames)),
		"transport.tcp_wire_bytes_per_ptick": sum.perPtick(float64(sum.tcpBytes)),
		"transport.tcp_mesh_retries":         float64(sum.meshRetries + plainSum.meshRetries),
		"core.data_msgs_per_ptick":           sum.perPtick(float64(sum.dataMsgs)),
		"core.ctrl_msgs_per_ptick":           sum.perPtick(float64(sum.msgs - sum.dataMsgs)),
		"core.delta_saved_share":             ratio(float64(sum.deltaSaved), float64(sum.deltaSaved+sum.wireBytes)),
		"core.exchange_time_share":           ratio(float64(plainSum.dur[metrics.CatExchange]), float64(plainSum.exec)),
		"game.app_time_share":                ratio(float64(plainSum.dur[metrics.CatAppCompute]), float64(plainSum.exec)),
		"interest.set_peak":                  float64(sum.setPeak),
		"interest.churn_per_ptick":           sum.perPtick(float64(sum.churn)),
		"interest.fetches_per_ptick":         sum.perPtick(float64(sum.fetches)),
		"shard.vetoes_per_ptick":             sum.perPtick(float64(sum.vetoes)),
		"ec.lock_acquire_time_share":         ratio(float64(plainSum.dur[metrics.CatLockAcquire]), float64(plainSum.exec)),
		"ec.obj_pull_time_share":             ratio(float64(plainSum.dur[metrics.CatObjPull]), float64(plainSum.exec)),
		"ec.lock_msgs_per_mod":               ratio(float64(sum.lockMsgs), float64(sum.mods)),
		"proc.cpu_us_per_ptick":              plainSum.perPtick(us(plainSum.cpu)),
		"proc.gc_cycles_per_kptick":          1000 * plainSum.perPtick(float64(plainSum.gcs)),
		"proc.game_ms_p50":                   quantile(plainSum.wallMs, 0.50),
		"proc.game_ms_p90":                   quantile(plainSum.wallMs, 0.90),
		"proc.pticks_per_s":                  plain.pticksPerSec(),
		"trace.overhead_share":               1 - ratio(traced.pticksPerSec(), plain.pticksPerSec()),
	}
	if err := r.panel(tr.sample, &sum, m); err != nil {
		return nil, err
	}
	return m, nil
}

// runWorkload performs one run and assembles the contract's result.
func runWorkload(w *workload, o options) (result, error) {
	r, err := newRun(w, o)
	if err != nil {
		return result{}, err
	}
	var got map[string]float64
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if got, err = r.tracedRun(); err != nil {
			return result{}, err
		}
	} else {
		got = r.endToEndRun()
	}
	res := result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	if len(got) != len(defs) {
		return result{}, fmt.Errorf("%s: measured %d metrics, BENCHMARK.json lists %d", w.name, len(got), len(defs))
	}
	return res, nil
}
