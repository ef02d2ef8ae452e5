package harness

import (
	"fmt"
	"testing"
	"time"
)

// TestGoldenGateMatrix pins the lookahead gate's decisions end to end:
// protocol × feature vector × n on the fixed-density world, seed 7, each
// cell's total messages, bytes, virtual duration and shard vetoes against
// constants recorded before the three send filters became one gate. A
// reordered gate term, a changed backstop slack, or a moved choice
// between inline and grouped SYNC fanout shifts at least one cell: the
// virtual clock sequences deliveries by send order, so even a pure
// reordering of a tick's sends shows up in the duration.
func TestGoldenGateMatrix(t *testing.T) {
	features := map[string]func(*Config){
		"plain":    func(*Config) {},
		"interest": func(c *Config) { c.Interest = true },
		"shards4":  func(c *Config) { c.Shards, c.DeltaEncode = 4, true },
		"interest+shards16": func(c *Config) {
			c.Interest, c.Shards, c.DeltaEncode = true, 16, true
		},
		"interest+shards4+batch3+piggyback": func(c *Config) {
			c.Interest, c.Shards, c.DeltaEncode = true, 4, true
			c.MaxBatchTicks, c.PiggybackSync = 3, true
		},
	}
	golden := []struct {
		n        int
		proto    Protocol
		features string
		msgs     int
		bytes    int
		virtual  time.Duration
		vetoes   int
	}{
		{16, BSYNC, "plain", 6233, 388714, 1166284400, 0},
		{16, BSYNC, "interest", 2904, 211129, 805774800, 0},
		{16, BSYNC, "shards4", 5712, 373669, 1249842800, 565},
		{16, BSYNC, "interest+shards16", 2904, 199754, 805774800, 0},
		{16, BSYNC, "interest+shards4+batch3+piggyback", 1545, 151727, 375348000, 0},
		{16, MSYNC, "plain", 2582, 188640, 721143200, 0},
		{16, MSYNC, "interest", 2711, 194793, 764580000, 0},
		{16, MSYNC, "shards4", 2565, 176648, 733462000, 20},
		{16, MSYNC, "interest+shards16", 2711, 183096, 764580000, 0},
		{16, MSYNC, "interest+shards4+batch3+piggyback", 1634, 150962, 520443200, 0},
		{16, MSYNC2, "plain", 2537, 188245, 705547600, 0},
		{16, MSYNC2, "interest", 2711, 194793, 764580000, 0},
		{16, MSYNC2, "shards4", 2535, 176419, 725331600, 0},
		{16, MSYNC2, "interest+shards16", 2711, 183096, 764580000, 0},
		{16, MSYNC2, "interest+shards4+batch3+piggyback", 1634, 150962, 520443200, 0},
		{64, BSYNC, "plain", 129733, 8127423, 5457796800, 0},
		{64, BSYNC, "interest", 32349, 2970909, 3749718800, 0},
		{64, BSYNC, "shards4", 99323, 7423766, 5957397200, 33291},
		{64, BSYNC, "interest+shards16", 32349, 2750352, 3749718800, 0},
		{64, BSYNC, "interest+shards4+batch3+piggyback", 18071, 1936971, 1647308000, 0},
		{64, MSYNC, "plain", 21712, 2012951, 3196878000, 0},
		{64, MSYNC, "interest", 22627, 2066573, 3146641200, 0},
		{64, MSYNC, "shards4", 21314, 1775422, 3137622400, 576},
		{64, MSYNC, "interest+shards16", 22627, 1834354, 3146641200, 0},
		{64, MSYNC, "interest+shards4+batch3+piggyback", 16143, 1636813, 3082593600, 0},
		{64, MSYNC2, "plain", 20936, 1997505, 3032841600, 0},
		{64, MSYNC2, "interest", 22627, 2066573, 3146641200, 0},
		{64, MSYNC2, "shards4", 20915, 1765328, 3113034800, 0},
		{64, MSYNC2, "interest+shards16", 22627, 1834354, 3146641200, 0},
		{64, MSYNC2, "interest+shards4+batch3+piggyback", 16143, 1636813, 3082593600, 0},
	}
	for _, want := range golden {
		t.Run(fmt.Sprintf("n%d/%s/%s", want.n, want.proto, want.features), func(t *testing.T) {
			if want.n > 16 && testing.Short() {
				t.Skip("n=64 cells skipped in -short mode")
			}
			g := InterestWorld(want.n)
			g.Seed = 7
			cfg := Config{Game: g, Protocol: want.proto}
			features[want.features](&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bytes := 0
			for _, s := range res.Metrics.Procs {
				bytes += s.BytesSent
			}
			if got := res.Metrics.TotalMsgs(); got != want.msgs {
				t.Errorf("total messages = %d, want %d", got, want.msgs)
			}
			if bytes != want.bytes {
				t.Errorf("bytes sent = %d, want %d", bytes, want.bytes)
			}
			if res.VirtualDuration != want.virtual {
				t.Errorf("virtual duration = %d ns, want %d ns", res.VirtualDuration, want.virtual)
			}
			if got := res.Metrics.ShardVetoes(); got != want.vetoes {
				t.Errorf("shard vetoes = %d, want %d", got, want.vetoes)
			}
		})
	}
}
