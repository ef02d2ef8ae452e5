package harness

import (
	"fmt"
	"testing"
	"time"
)

// TestGoldenGateMatrix pins the lookahead gate's decisions end to end:
// protocol × feature vector × n on the fixed-density world, seed 7, each
// cell's total messages (frames), bytes, virtual duration and shard vetoes
// against recorded constants. The vetoes date from before the three send
// filters became one gate; messages, bytes and durations were re-recorded
// once, when the SYNC and DONE markers began riding the data frame — with
// every cell's per-team stats and vetoes equal to the two-frame protocol's
// — and the bytes column alone twice more: when the message codec became
// varint, and when Src and Dst left the encoding (8 B a frame fewer, so
// each cell's bytes fell by exactly 8 × its messages). Both times frames,
// durations, vetoes and per-team stats of every cell were equal to the
// previous codec's; EXPERIMENTS.md lists old → new. Frames, bytes and
// durations of the 18 interest cells were re-recorded once more when the
// enter-radius fetch was deleted: every cell's per-team stats and vetoes
// stayed equal, and the 12 cells without interest did not move. The
// last vector keeps the name it was recorded under; its piggyback flag is
// now every vector's. A
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
			c.MaxBatchTicks = 3
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
		{16, BSYNC, "plain", 3262, 133404, 641946400, 0},
		{16, BSYNC, "interest", 1596, 83663, 499305600, 0},
		{16, BSYNC, "shards4", 3262, 118440, 721278000, 565},
		{16, BSYNC, "interest+shards16", 1596, 72268, 499305600, 0},
		{16, BSYNC, "interest+shards4+batch3+piggyback", 1361, 73192, 310762000, 0},
		{16, MSYNC, "plain", 1405, 81766, 437684800, 0},
		{16, MSYNC, "interest", 1413, 80867, 450003600, 0},
		{16, MSYNC, "shards4", 1405, 69750, 445815200, 20},
		{16, MSYNC, "interest+shards16", 1413, 69143, 450003600, 0},
		{16, MSYNC, "interest+shards4+batch3+piggyback", 1413, 69143, 450003600, 0},
		{16, MSYNC2, "plain", 1413, 80867, 440173200, 0},
		{16, MSYNC2, "interest", 1413, 80867, 450003600, 0},
		{16, MSYNC2, "shards4", 1413, 69143, 446726800, 0},
		{16, MSYNC2, "interest+shards16", 1413, 69143, 450003600, 0},
		{16, MSYNC2, "interest+shards4+batch3+piggyback", 1413, 69143, 450003600, 0},
		{64, BSYNC, "plain", 67844, 2800377, 2808504000, 0},
		{64, BSYNC, "interest", 23129, 1155664, 2366482400, 0},
		{64, BSYNC, "shards4", 67844, 2085981, 3696355200, 33291},
		{64, BSYNC, "interest+shards16", 23129, 935645, 2366482400, 0},
		{64, BSYNC, "interest+shards4+batch3+piggyback", 15546, 931265, 1109824400, 0},
		{64, MSYNC, "plain", 12787, 1065673, 1902492000, 0},
		{64, MSYNC, "interest", 12981, 1036519, 1927229600, 0},
		{64, MSYNC, "shards4", 12846, 823729, 1837882800, 576},
		{64, MSYNC, "interest+shards16", 12981, 805523, 1927229600, 0},
		{64, MSYNC, "interest+shards4+batch3+piggyback", 12981, 805523, 1927229600, 0},
		{64, MSYNC2, "plain", 12998, 1038965, 1911684000, 0},
		{64, MSYNC2, "interest", 12981, 1036519, 1927229600, 0},
		{64, MSYNC2, "shards4", 12974, 805188, 1931233200, 0},
		{64, MSYNC2, "interest+shards16", 12981, 805523, 1927229600, 0},
		{64, MSYNC2, "interest+shards4+batch3+piggyback", 12981, 805523, 1927229600, 0},
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
