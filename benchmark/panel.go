package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sdso/internal/core"
	"sdso/internal/diff"
	"sdso/internal/game"
	"sdso/internal/harness"
	"sdso/internal/interest"
	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/shard"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// panelSink keeps the compiler from discarding the timed calls.
var panelSink int

// timeBatched times fn, an operation cheap enough to batch: three batches
// sized to about batch each; it returns the median batch's ns per call and
// the allocations per call.
func timeBatched(batch time.Duration, fn func()) (nsOp, allocsOp float64) {
	fn() // warm pools and recycled buffers
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(t0); d >= batch/10 || iters >= 1<<20 {
			iters = int(float64(iters)*float64(batch)/float64(d+1)) + 1
			break
		}
		iters *= 4
	}
	var ns []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(t0))/float64(iters))
	}
	runtime.ReadMemStats(&ms1)
	return median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(3*iters)
}

// timeEach times fn, an operation too coarse to batch or one that needs
// untimed per-call set-up, once per call over reps calls; it returns the
// median ns and mean allocations of one call.
func timeEach(reps int, setup func(), fn func()) (ns, allocs float64) {
	var all []float64
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i <= reps; i++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if i == 0 {
			continue // warm-up call
		}
		all = append(all, float64(d))
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	return median(all), float64(mallocs) / float64(reps)
}

// recorded is the panel's input: states of the first seed's game, so every
// layer is timed on what that workload actually feeds it.
type recorded struct {
	cfg   game.Config
	views []game.View    // decision inputs, spread over the game's ticks
	ticks [][][]game.Pos // tank positions indexed by tick, then team
	// cells are block states before and after a recorded write.
	before, after []byte
	msgs          []*wire.Msg // sampled sent messages
	payload       []byte      // a sampled DATA payload
	deltaPayload  bool
}

func record(g game.Config, msgs []*wire.Msg) (*recorded, error) {
	g.TraceWorlds = true
	ref, err := game.RunReference(g)
	if err != nil {
		return nil, fmt.Errorf("panel: reference game: %w", err)
	}
	if len(ref.Worlds) == 0 {
		return nil, errors.New("panel: reference game recorded no worlds")
	}
	rec := &recorded{cfg: g, msgs: msgs}
	stride := max(1, len(ref.Worlds)*g.Teams/256)
	k := 0
	for _, w := range ref.Worlds {
		w := w
		pos := w.TankPositions()
		byTeam := make([][]game.Pos, g.Teams)
		for team, ps := range pos {
			byTeam[team] = ps
		}
		rec.ticks = append(rec.ticks, byTeam)
		for team := 0; team < g.Teams; team++ {
			for _, self := range pos[team] {
				if k++; k%stride != 0 {
					continue
				}
				enemies := make(map[int][]game.Pos, len(pos))
				for t, ps := range pos {
					if t != team {
						enemies[t] = ps
					}
				}
				rec.views = append(rec.views, game.View{
					Cfg: g, Team: team, Self: self, Prev: self, Goal: w.Goal,
					CellAt: w.At, Enemies: enemies,
				})
			}
		}
	}
	if len(rec.views) == 0 {
		return nil, errors.New("panel: reference game recorded no views")
	}
	rec.before = game.EncodeCell(game.Cell{Kind: game.Empty})
	rec.after = game.EncodeCell(game.Cell{Kind: game.Tank, Team: 1})
	for _, m := range msgs {
		if m.Kind == wire.KindData && len(m.Payload) > len(rec.payload) {
			rec.payload = m.Payload
			rec.deltaPayload = m.Mode&wire.ModeDeltaPayload != 0
		}
	}
	if len(msgs) == 0 {
		return nil, errors.New("panel: the traced game recorded no messages")
	}
	if rec.payload == nil {
		// Entry consistency ships whole objects, not diff batches; the
		// payload codec is then timed on one block replacement.
		d := diff.Compute(rec.before, rec.after)
		rec.payload = xlist.EncodeDiffs([]xlist.ObjDiff{{Obj: 0, Version: 1, D: d}})
	}
	return rec, nil
}

// livePairs returns up to limit (a, b) tank-position pairs of distinct
// live teams from the first recorded tick.
func (rec *recorded) livePairs(limit int) [][2][]game.Pos {
	var live [][]game.Pos
	for _, ps := range rec.ticks[0] {
		if len(ps) > 0 {
			live = append(live, ps)
		}
	}
	var pairs [][2][]game.Pos
	for i := range live {
		for j := range live {
			if i != j && len(pairs) < limit {
				pairs = append(pairs, [2][]game.Pos{live[i], live[j]})
			}
		}
	}
	return pairs
}

// panel times each layer's public functions in isolation on rec, pins the
// paper's protocol order, and reconciles the panel with the traced
// player self time. It adds its metrics to m.
func (r *run) panel(msgs []*wire.Msg, sum *accum, m map[string]float64) error {
	rec, err := record(r.cfgs[0], msgs)
	if err != nil {
		return err
	}
	g, n := rec.cfg, rec.cfg.Teams
	h := g.InteractionRadius()
	var fail error
	must := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	batch := r.o.batch
	if batch == 0 {
		batch = 10 * time.Millisecond
	}
	timeOp := func(fn func()) (float64, float64) { return timeBatched(batch, fn) }

	// game
	ns, _ := timeEach(5, nil, func() {
		w, err := game.NewWorld(g)
		must(err)
		panelSink += len(w.Cells)
	})
	m["game.new_world_us"] = us(ns)
	i := 0
	m["game.decide_ns_op"], _ = timeOp(func() {
		panelSink += int(game.Decide(rec.views[i%len(rec.views)]).Kind)
		i++
	})
	pairs := rec.livePairs(256)
	if len(pairs) == 0 {
		return errors.New("panel: recorded tick has fewer than two live teams")
	}
	m["game.sfunc_ns_op"], _ = timeOp(func() {
		p := pairs[i%len(pairs)]
		i++
		panelSink += int(game.NextDelta(h, p[0], nil, p[1], nil))
		if game.AlignmentPossible(p[0], p[1], 1) && game.WithinRange(p[0], p[1], h, 1) {
			panelSink++
		}
	})
	m["game.beacon_codec_ns_op"], _ = timeOp(func() {
		b, err := game.DecodeBeacon(game.EncodeBeacon(game.Beacon{Tanks: pairs[i%len(pairs)][0]}))
		must(err)
		i++
		panelSink += len(b.Tanks)
	})

	// interest and shard gates
	ix := interest.New(interest.Config{Width: g.Width, Height: g.Height, Radius: h})
	tick := int64(0)
	m["interest.refresh_ns_op"], _ = timeOp(func() {
		tanks := rec.ticks[int(tick)%len(rec.ticks)]
		tick++
		for team := 1; team < n; team++ {
			ix.Observe(team, tanks[team], tick)
		}
		entered, _ := ix.Refresh(tanks[0], tick)
		panelSink += len(entered)
	})
	shards := 16
	if r.w.shards > 1 {
		shards = r.w.shards
	}
	part, err := shard.New(g.Width, g.Height, shards)
	if err != nil {
		return fmt.Errorf("panel: %w", err)
	}
	m["shard.overlaps_ns_op"], _ = timeOp(func() {
		p := pairs[i%len(pairs)]
		i++
		if part.Overlaps(p[0], h, p[1], h) {
			panelSink++
		}
	})

	// store
	world, err := game.NewWorld(g)
	if err != nil {
		return fmt.Errorf("panel: %w", err)
	}
	cells := make([][]byte, len(world.Cells))
	for id, c := range world.Cells {
		cells[id] = game.EncodeCell(c)
	}
	ns, _ = timeEach(5, nil, func() {
		st := store.New()
		for id, c := range cells {
			must(st.Register(store.ID(id), c))
		}
		panelSink += st.Len()
	})
	m["store.register_world_us"] = us(ns)
	st := store.New()
	must(st.Register(0, rec.before))
	states := [2][]byte{rec.after, rec.before}
	m["store.update_ns_op"], _ = timeOp(func() {
		d, err := st.Update(0, states[i%2])
		must(err)
		i++
		panelSink += d.Len
	})
	repl := [2]diff.Diff{diff.Compute(rec.before, rec.after), diff.Compute(rec.after, rec.before)}
	must(st.SetState(0, rec.before, 0))
	ver := int64(0)
	m["store.apply_diff_ns_op"], _ = timeOp(func() {
		ver++
		must(st.ApplyDiff(0, repl[(ver+1)%2], ver))
	})

	// core
	var ep transport.Endpoint
	ns, allocs := timeEach(5, func() { ep = transport.NewMemNetwork(n).Endpoint(0) }, func() {
		rt, err := core.New(core.Config{Endpoint: ep, MergeDiffs: true, DeltaEncode: r.w.delta})
		must(err)
		if err == nil {
			for id, c := range cells {
				must(rt.Share(store.ID(id), c))
			}
		}
	})
	m["core.share_world_us"], m["core.share_world_allocs"] = us(ns), allocs
	ns, allocs, err = exchangePair(r.w.delta, rec)
	if err != nil {
		return err
	}
	m["core.exchange2_us_op"], m["core.exchange2_allocs_op"] = us(ns), allocs

	// diff
	var d diff.Diff
	out := make([]byte, 0, len(rec.before))
	m["diff.compute_apply_ns_op"], _ = timeOp(func() {
		diff.ComputeInto(&d, rec.before, rec.after)
		var err error
		out, err = diff.ApplyTo(out, rec.before, d)
		must(err)
	})
	m["diff.merge_ns_op"], _ = timeOp(func() {
		var merged diff.Diff
		must(diff.MergeInto(&merged, repl[0], repl[1]))
		panelSink += merged.Len
	})

	// xlist
	buf := xlist.NewSlottedBuffer(0, n, true)
	obj := 0
	m["xlist.addall_ns_op"], _ = timeOp(func() {
		// A bounded object range, so merging is exercised and the buffer
		// stays the size a withheld-write backlog has.
		obj = (obj + 1) % 64
		ver++
		must(buf.AddAll(store.ID(obj), ver, repl[obj%2], nil))
	})
	ns, _ = timeEach(20,
		func() {
			for o := 0; o < 4; o++ {
				must(buf.AddAll(store.ID(o), 1, repl[0], nil))
			}
		},
		func() {
			for peer := 1; peer < n; peer++ {
				panelSink += len(buf.Flush(peer))
			}
		})
	m["xlist.flush_ns_op"] = ns / float64(n-1)
	list := xlist.NewList()
	for peer := 1; peer < n; peer++ {
		list.Set(peer, 1)
	}
	m["xlist.due_ns_op"], _ = timeOp(func() {
		tick++
		for _, e := range list.Due(tick) {
			list.Set(e.Proc, tick+1)
		}
	})
	encode, decode, err := payloadCodec(rec)
	if err != nil {
		return err
	}
	m["xlist.delta_encode_ns_op"], _ = timeOp(encode)
	m["xlist.delta_decode_ns_op"], _ = timeOp(func() { must(decode()) })

	// wire, on the recorded message mix
	scratch := make([]byte, 0, 4096)
	m["wire.encode_ns_op"], m["wire.encode_allocs_op"] = timeOp(func() {
		var err error
		scratch, err = rec.msgs[i%len(rec.msgs)].AppendBinary(scratch[:0])
		must(err)
		i++
	})
	frames := make([][]byte, len(rec.msgs))
	for k, msg := range rec.msgs {
		frames[k], err = msg.MarshalBinary()
		must(err)
	}
	var into wire.Msg
	m["wire.decode_ns_op"], m["wire.decode_allocs_op"] = timeOp(func() {
		must(into.UnmarshalBinary(frames[i%len(frames)]))
		i++
	})

	// transport
	mem := transport.NewMemNetwork(n)
	a, b := mem.Endpoint(0), mem.Endpoint(1)
	ping := rec.msgs[0]
	m["transport.mem_rtt_ns_op"], _ = timeOp(func() {
		must(a.Send(1, ping))
		got, err := b.Recv()
		must(err)
		must(b.Send(0, got))
		_, err = a.Recv()
		must(err)
	})
	dsts := make([]int, 0, n-1)
	for peer := 1; peer < n; peer++ {
		dsts = append(dsts, peer)
	}
	m["transport.sendmany_ns_op"], _ = timeOp(func() {
		must(transport.SendMany(a, dsts, ping))
		for _, peer := range dsts {
			_, _, err := mem.Endpoint(peer).TryRecv()
			must(err)
		}
	})
	mem.Close()
	if m["transport.tcp_rtt_us_op"], m["transport.tcp_mesh_dial_ms"], err = tcpPanel(batch, min(n, 8), ping); err != nil {
		return err
	}

	// simulator
	ns, _ = timeEach(5, nil, func() {
		sim := vtime.NewSim(vtime.Config{Links: vtime.ConstantDelay(time.Microsecond)})
		sim.Spawn(func(p *vtime.Proc) {
			for k := 0; k < 500; k++ {
				p.Send(1, k, 64)
				if _, ok := p.Recv(); !ok {
					return
				}
			}
		})
		sim.Spawn(func(p *vtime.Proc) {
			for k := 0; k < 500; k++ {
				if _, ok := p.Recv(); !ok {
					return
				}
				p.Send(0, k, 64)
			}
		})
		must(sim.Run())
	})
	m["vtime.switch_ns_op"] = ns / 1000 // 500 round trips, two switches each
	cluster := netmodel.NewCluster(netmodel.Ethernet10Mbps())
	m["netmodel.delivery_ns_op"], _ = timeOp(func() {
		i++
		panelSink += int(cluster.Delivery(i%16, (i+1)%16, 2048, vtime.Time(i)*time.Microsecond))
	})
	mgr := lockmgr.New([]store.ID{0}, nil)
	m["lockmgr.acquire_release_ns_op"], _ = timeOp(func() {
		ver++
		_, err := mgr.Acquire(lockmgr.Request{Proc: 1, Obj: 0, Mode: lockmgr.Write})
		must(err)
		_, err = mgr.Release(1, 0, true, ver)
		must(err)
	})
	if fail != nil {
		return fmt.Errorf("panel: %w", fail)
	}

	if err := fig5Pins(m); err != nil {
		return err
	}
	r.reconcile(sum, m)
	return nil
}

// exchangePair times Write+Exchange in lockstep between two runtimes on a
// mem pair: one op is one tick of both.
func exchangePair(delta bool, rec *recorded) (ns, allocs float64, err error) {
	const ticks = 200
	errs := make([]error, 2)
	tickOf := func(rt *core.Runtime, self int, k int) error {
		if err := rt.Write(store.ID(self), [2][]byte{rec.after, rec.before}[k%2]); err != nil {
			return err
		}
		return rt.Exchange(core.ExchangeOpts{
			Resync: true, SFunc: core.EveryTick,
			Beacon: func(int) []int64 { return []int64{int64(self), rt.Now()} },
		})
	}
	ns, allocs = timeEach(5, nil, func() {
		mem := transport.NewMemNetwork(2)
		defer mem.Close()
		var wg sync.WaitGroup
		for self := 0; self < 2; self++ {
			self := self
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt, err := core.New(core.Config{Endpoint: mem.Endpoint(self), MergeDiffs: true, DeltaEncode: delta})
				for id := 0; id < 2 && err == nil; id++ {
					err = rt.Share(store.ID(id), rec.before)
				}
				for k := 0; k < ticks && err == nil; k++ {
					err = tickOf(rt, self, k)
				}
				errs[self] = errors.Join(errs[self], err)
			}()
		}
		wg.Wait()
	})
	if err := errors.Join(errs...); err != nil {
		return 0, 0, fmt.Errorf("panel: exchange pair: %w", err)
	}
	return ns / ticks, allocs / ticks, nil
}

// payloadCodec returns the DATA payload codec the workload uses, bound to
// the recorded payload: delta records under DeltaEncode, plain diffs
// otherwise.
func payloadCodec(rec *recorded) (encode func(), decode func() error, err error) {
	if rec.deltaPayload {
		recs, err := xlist.DecodeDeltaRecords(rec.payload)
		if err != nil {
			return nil, nil, fmt.Errorf("panel: recorded payload: %w", err)
		}
		return func() { panelSink += len(xlist.EncodeDeltaRecords(recs)) },
			func() error { _, err := xlist.DecodeDeltaRecords(rec.payload); return err }, nil
	}
	diffs, err := xlist.DecodeDiffs(rec.payload)
	if err != nil {
		return nil, nil, fmt.Errorf("panel: recorded payload: %w", err)
	}
	return func() { panelSink += len(xlist.EncodeDiffs(diffs)) },
		func() error { _, err := xlist.DecodeDiffs(rec.payload); return err }, nil
}

// tcpPanel times a loopback round trip of ping on a two-node mesh and the
// dial of an n-node mesh.
func tcpPanel(batch time.Duration, n int, ping *wire.Msg) (rttUs, dialMs float64, err error) {
	mcs := make([]*metrics.Collector, n)
	pair, _, err := dialMesh(2, mcs)
	if err != nil {
		return 0, 0, err
	}
	var fail error
	ns, _ := timeBatched(batch, func() {
		err := pair[0].Send(1, ping)
		if err == nil {
			err = pair[0].Flush()
		}
		var got *wire.Msg
		if err == nil {
			got, err = pair[1].Recv()
		}
		if err == nil {
			err = pair[1].Send(0, got)
		}
		if err == nil {
			err = pair[1].Flush()
		}
		if err == nil {
			got, err = pair[0].Recv()
			pair[0].Recycle(got)
		}
		if err != nil && fail == nil {
			fail = err
		}
	})
	closeMesh(pair)
	if fail != nil {
		return 0, 0, fmt.Errorf("panel: tcp round trip: %w", fail)
	}
	var mesh []*transport.TCPEndpoint
	dial, _ := timeEach(3, nil, func() {
		closeMesh(mesh)
		mesh, _, err = dialMesh(n, mcs)
	})
	closeMesh(mesh)
	if err != nil {
		return 0, 0, err
	}
	return ns / 1e3, dial / 1e6, nil
}

// fig5Pins replays the paper's Figure-5 configuration (16 processes,
// range 1, seed 1) under each of its four protocols and fails if the
// paper's order MSYNC2 <= MSYNC < BSYNC < EC breaks.
func fig5Pins(m map[string]float64) error {
	g := game.DefaultConfig(16, 1)
	g.MaxTicks = 200
	ms := make(map[harness.Protocol]float64)
	for _, p := range harness.PaperProtocols {
		res, err := harness.Run(harness.Config{Game: g, Protocol: p})
		if err != nil {
			return fmt.Errorf("panel: figure 5 %s: %w", p, err)
		}
		ms[p] = harness.MetricNormalizedTime(res)
	}
	m["sim.fig5_ms_per_mod.bsync_n16"] = ms[harness.BSYNC]
	m["sim.fig5_ms_per_mod.msync_n16"] = ms[harness.MSYNC]
	m["sim.fig5_ms_per_mod.msync2_n16"] = ms[harness.MSYNC2]
	m["sim.fig5_ms_per_mod.ec_n16"] = ms[harness.EC]
	if !(ms[harness.MSYNC2] <= ms[harness.MSYNC] && ms[harness.MSYNC] < ms[harness.BSYNC] && ms[harness.BSYNC] < ms[harness.EC]) {
		return fmt.Errorf("panel: figure 5 order MSYNC2 <= MSYNC < BSYNC < EC broken: %v", ms)
	}
	return nil
}

// reconcile multiplies each panel cost by how often the traced games
// performed that operation per player-tick and compares the sum with the
// traced player self time. What the sum leaves out — the Exchange
// bookkeeping between the calls, scheduling, GC assists — is reported as
// the unattributed share.
func (r *run) reconcile(sum *accum, m map[string]float64) {
	per := func(v int) float64 { return sum.perPtick(float64(v)) }
	sends := m["transport.send_calls_per_ptick"]
	recvs := m["transport.recv_calls_per_ptick"]
	data, ctrl := per(sum.dataMsgs), per(sum.msgs-sum.dataMsgs)
	mods := per(sum.mods)
	ns := m["game.decide_ns_op"] +
		mods*(m["store.update_ns_op"]+m["xlist.addall_ns_op"]) +
		m["xlist.due_ns_op"] +
		data*(m["xlist.flush_ns_op"]+m["xlist.delta_encode_ns_op"]+m["xlist.delta_decode_ns_op"]+m["store.apply_diff_ns_op"]) +
		2*ctrl*m["game.beacon_codec_ns_op"] +
		sends*m["wire.encode_ns_op"] + recvs*m["wire.decode_ns_op"]
	if r.w.proto != harness.BSYNC && r.w.proto != harness.EC {
		ns += ctrl * m["game.sfunc_ns_op"]
	}
	if r.w.interest {
		ns += m["interest.refresh_ns_op"]
	}
	if r.w.shards > 1 {
		ns += data * m["shard.overlaps_ns_op"]
	}
	if r.w.net == simNet {
		ns += (sends+recvs)*m["vtime.switch_ns_op"] + sends*m["netmodel.delivery_ns_op"] +
			per(sum.lockMsgs)/2*m["lockmgr.acquire_release_ns_op"]
	}
	// Set-up is paid once per player and amortized over its ticks.
	setupUs := (m["game.new_world_us"] + m["core.share_world_us"]) * ratio(float64(sum.players), float64(sum.pticks))
	est := ns/1e3 + setupUs
	// On the simulator the estimate also covers the service processes and
	// the scheduler, which no player span contains; there it is held
	// against the CPU time of a player-tick, everything being on one core.
	whole := m["lookahead.self_us_per_ptick"]
	if r.w.net == simNet {
		whole = m["proc.cpu_us_per_ptick"]
	}
	m["recon.estimated_us_per_ptick"] = est
	m["recon.unattributed_share"] = 1 - ratio(est, whole)
}
