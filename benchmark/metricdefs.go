package main

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload emits all of
// it on an untraced run. Each bound is about three times the widest
// quartile spread any workload showed across two sets of ten different seed
// blocks (README.md, "Bounds"): apart from setup_s the metrics are counted,
// not timed, so that spread is the game-to-game variation of the inputs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_ptick", "count", "lower", 0.12},
	{"alloc_bytes_per_ptick", "B", "lower", 0.12},
	{"msgs_per_ptick", "count", "lower", 0.15},
	{"wire_bytes_per_ptick", "B", "lower", 0.15},
	{"virt_ms_per_mod", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is what the traced run emits: in-game spans and counters first,
// then the isolated panel, the paper-order pins and the reconciliation.
var perLayer = []metricDef{
	{Name: "lookahead.player_us_per_ptick", Unit: "us", Better: "lower"},
	{Name: "lookahead.self_us_per_ptick", Unit: "us", Better: "lower"},
	{Name: "lookahead.ref_mismatch_share", Unit: "share", Better: "lower"},
	{Name: "transport.send_us_per_ptick", Unit: "us", Better: "lower"},
	{Name: "transport.send_calls_per_ptick", Unit: "count", Better: "lower"},
	{Name: "transport.flush_us_per_ptick", Unit: "us", Better: "lower"},
	{Name: "transport.flush_calls_per_ptick", Unit: "count", Better: "lower"},
	{Name: "transport.recv_wait_us_per_ptick", Unit: "us", Better: "lower"},
	{Name: "transport.recv_calls_per_ptick", Unit: "count", Better: "lower"},
	{Name: "transport.msg_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "transport.msg_bytes_p99", Unit: "B", Better: "lower"},
	{Name: "transport.tcp_frames_per_ptick", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_wire_bytes_per_ptick", Unit: "B", Better: "lower"},
	{Name: "transport.tcp_mesh_retries", Unit: "count", Better: "lower"},
	{Name: "core.data_msgs_per_ptick", Unit: "count", Better: "lower"},
	{Name: "core.ctrl_msgs_per_ptick", Unit: "count", Better: "lower"},
	{Name: "core.delta_saved_share", Unit: "share", Better: "higher"},
	{Name: "core.exchange_time_share", Unit: "share", Better: "lower"},
	{Name: "game.app_time_share", Unit: "share", Better: "higher"},
	{Name: "interest.set_peak", Unit: "count", Better: "lower"},
	{Name: "interest.churn_per_ptick", Unit: "count", Better: "lower"},
	{Name: "interest.fetches_per_ptick", Unit: "count", Better: "lower"},
	{Name: "shard.vetoes_per_ptick", Unit: "count", Better: "higher"},
	{Name: "ec.lock_acquire_time_share", Unit: "share", Better: "lower"},
	{Name: "ec.obj_pull_time_share", Unit: "share", Better: "lower"},
	{Name: "ec.lock_msgs_per_mod", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_us_per_ptick", Unit: "us", Better: "lower"},
	{Name: "proc.gc_cycles_per_kptick", Unit: "count", Better: "lower"},
	{Name: "proc.game_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "proc.game_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "proc.pticks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},

	{Name: "game.new_world_us", Unit: "us", Better: "lower"},
	{Name: "game.decide_ns_op", Unit: "ns", Better: "lower"},
	{Name: "game.sfunc_ns_op", Unit: "ns", Better: "lower"},
	{Name: "game.beacon_codec_ns_op", Unit: "ns", Better: "lower"},
	{Name: "interest.refresh_ns_op", Unit: "ns", Better: "lower"},
	{Name: "shard.overlaps_ns_op", Unit: "ns", Better: "lower"},
	{Name: "store.register_world_us", Unit: "us", Better: "lower"},
	{Name: "store.update_ns_op", Unit: "ns", Better: "lower"},
	{Name: "store.apply_diff_ns_op", Unit: "ns", Better: "lower"},
	{Name: "core.share_world_us", Unit: "us", Better: "lower"},
	{Name: "core.share_world_allocs", Unit: "count", Better: "lower"},
	{Name: "core.exchange2_us_op", Unit: "us", Better: "lower"},
	{Name: "core.exchange2_allocs_op", Unit: "count", Better: "lower"},
	{Name: "diff.compute_apply_ns_op", Unit: "ns", Better: "lower"},
	{Name: "diff.merge_ns_op", Unit: "ns", Better: "lower"},
	{Name: "xlist.addall_ns_op", Unit: "ns", Better: "lower"},
	{Name: "xlist.flush_ns_op", Unit: "ns", Better: "lower"},
	{Name: "xlist.due_ns_op", Unit: "ns", Better: "lower"},
	{Name: "xlist.delta_encode_ns_op", Unit: "ns", Better: "lower"},
	{Name: "xlist.delta_decode_ns_op", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_op", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_op", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_allocs_op", Unit: "count", Better: "lower"},
	{Name: "wire.decode_allocs_op", Unit: "count", Better: "lower"},
	{Name: "transport.mem_rtt_ns_op", Unit: "ns", Better: "lower"},
	{Name: "transport.sendmany_ns_op", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_rtt_us_op", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_mesh_dial_ms", Unit: "ms", Better: "lower"},
	{Name: "vtime.switch_ns_op", Unit: "ns", Better: "lower"},
	{Name: "netmodel.delivery_ns_op", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.acquire_release_ns_op", Unit: "ns", Better: "lower"},
	{Name: "sim.fig5_ms_per_mod.bsync_n16", Unit: "ms", Better: "lower"},
	{Name: "sim.fig5_ms_per_mod.msync_n16", Unit: "ms", Better: "lower"},
	{Name: "sim.fig5_ms_per_mod.msync2_n16", Unit: "ms", Better: "lower"},
	{Name: "sim.fig5_ms_per_mod.ec_n16", Unit: "ms", Better: "lower"},
	{Name: "recon.estimated_us_per_ptick", Unit: "us", Better: "lower"},
	{Name: "recon.unattributed_share", Unit: "share", Better: "lower"},
}

// runSeconds is how long one run measures when --seconds is not given; it
// is BENCHMARK.json's run_seconds.
const runSeconds = 24

// spec is BENCHMARK.json; `-spec` prints it so the file is generated from
// the tables above, and TestSpecMatchesBenchmarkJSON keeps the two equal.
type spec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specLoad  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads(0) {
		s.Workloads = append(s.Workloads, specLoad{w.name, w.why})
	}
	return s
}
