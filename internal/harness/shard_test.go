package harness

import (
	"reflect"
	"testing"

	"sdso/internal/game"
	"sdso/internal/metrics"
)

// Shard-gate coverage at the full-game level: the residency intersection
// must preserve every oracle invariant the interest filter does, sharded
// runs must be deterministic, and Shards=1 must be byte-identical to the
// unsharded path.

// TestShardGateOracle runs the lookahead matrix with the world split
// into 4 shards and the DATA fanout intersected with residency: every
// withhold must honor the sensing radius and the interest delivery
// budget, exactly as with the interest filter.
func TestShardGateOracle(t *testing.T) {
	for _, proto := range LookaheadProtocols {
		for _, seed := range interestOracleSeeds {
			rep, err := RunChecked(CheckedConfig{
				Protocol: proto,
				Seed:     seed,
				Teams:    8,
				Ticks:    60,
				Shards:   4,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", proto, seed, err)
			}
			if !rep.Ok() {
				t.Errorf("%s seed %d:\n%s", proto, seed, rep)
			}
		}
	}
}

// TestShardGateOracleWithInterest intersects both filters — the ISSUE's
// production configuration — under delta encoding and tick batching.
func TestShardGateOracleWithInterest(t *testing.T) {
	for _, seed := range interestOracleSeeds {
		rep, err := RunChecked(CheckedConfig{
			Protocol:      BSYNC,
			Seed:          seed,
			Teams:         8,
			Ticks:         60,
			Shards:        4,
			Interest:      true,
			DeltaEncode:   true,
			MaxBatchTicks: 4,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Ok() {
			t.Errorf("seed %d:\n%s", seed, rep)
		}
	}
}

// shardRunConfig is the small sharded experiment the determinism tests
// replay: BSYNC with delta and batching on a world sparse enough
// (8 players on 64x48) that residency actually vetoes. Interest stays
// off so the shard gate is the filter deciding every withhold — with
// both on, interest vetoes first and the shard gate never engages.
func shardRunConfig(shards int) Config {
	g := game.DefaultConfig(8, 1)
	g.Width, g.Height = 64, 48
	g.Seed = 7
	g.MaxTicks = 40
	return Config{
		Game:          g,
		Protocol:      BSYNC,
		DeltaEncode:   true,
		MaxBatchTicks: 4,
		Shards:        shards,
	}
}

// assertIdenticalResults demands two runs be byte-identical: same game
// outcomes, same per-process metrics, same virtual duration.
func assertIdenticalResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.VirtualDuration != b.VirtualDuration {
		t.Errorf("%s: virtual duration diverged: %v vs %v", label, a.VirtualDuration, b.VirtualDuration)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("%s: team stats diverged:\n  %+v\n  %+v", label, a.Stats, b.Stats)
	}
	if len(a.Metrics.Procs) != len(b.Metrics.Procs) {
		t.Fatalf("%s: proc count diverged: %d vs %d", label, len(a.Metrics.Procs), len(b.Metrics.Procs))
	}
	for i := range a.Metrics.Procs {
		if !reflect.DeepEqual(a.Metrics.Procs[i], b.Metrics.Procs[i]) {
			t.Errorf("%s: proc %d metrics diverged:\n  %+v\n  %+v",
				label, i, a.Metrics.Procs[i], b.Metrics.Procs[i])
		}
	}
}

// TestShardRunDeterministic replays the sharded experiment and demands
// byte-identical results: the partition, the gate, and the handoff-free
// fanout must introduce no scheduling nondeterminism.
func TestShardRunDeterministic(t *testing.T) {
	a, err := Run(shardRunConfig(4))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(shardRunConfig(4))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	assertIdenticalResults(t, "shards=4 double run", a, b)
	if a.Metrics.Sum(func(s metrics.Snapshot) int { return s.ShardVetoes }) == 0 {
		t.Error("shards=4 run recorded no shard vetoes; the gate never engaged")
	}
}

// TestShardOneMatchesUnsharded pins the opt-in contract: Shards=1 takes
// the nil-partition path and must be byte-identical to Shards=0.
func TestShardOneMatchesUnsharded(t *testing.T) {
	plain, err := Run(shardRunConfig(0))
	if err != nil {
		t.Fatalf("unsharded run: %v", err)
	}
	one, err := Run(shardRunConfig(1))
	if err != nil {
		t.Fatalf("shards=1 run: %v", err)
	}
	assertIdenticalResults(t, "shards=1 vs unsharded", plain, one)
	if one.Metrics.Sum(func(s metrics.Snapshot) int { return s.ShardVetoes }) != 0 {
		t.Errorf("shards=1 run recorded %d shard vetoes; expected the filter disabled",
			one.Metrics.Sum(func(s metrics.Snapshot) int { return s.ShardVetoes }))
	}
}

// TestShardSweepDeterministic runs a small sharded sweep twice — once
// sequentially, once with the worker pool — and demands identical
// assembled results, pinning the ISSUE's byte-identical-sweeps claim.
func TestShardSweepDeterministic(t *testing.T) {
	sc := SweepConfig{
		Protocols: []Protocol{BSYNC, MSYNC},
		Ns:        []int{4, 8},
		Seeds:     []int64{1, 2},
		MaxTicks:  30,
		Shards:    4,
		Workers:   1,
	}
	a, err := RunSweep(sc)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	sc.Workers = 4
	b, err := RunSweep(sc)
	if err != nil {
		t.Fatalf("pooled sweep: %v", err)
	}
	for _, proto := range sc.Protocols {
		for _, n := range sc.Ns {
			ra, rb := a.Results[proto][n], b.Results[proto][n]
			if len(ra) != len(rb) {
				t.Fatalf("%s n=%d: seed count diverged: %d vs %d", proto, n, len(ra), len(rb))
			}
			for i := range ra {
				assertIdenticalResults(t, string(proto), ra[i], rb[i])
			}
		}
	}
}
