package harness

import (
	"fmt"
	"testing"
	"time"

	"sdso/internal/metrics"
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
// stayed equal, and the 12 cells without interest did not move. The two
// plain BSYNC cells were re-recorded when a peer the replica shows ended
// stopped being sent frames: their per-team stats stayed equal. Every
// cell but n = 16's batched BSYNC one was re-recorded when every
// lookahead variant stopped sending frames to a peer every replica agrees
// has ended: per-team stats stayed equal in all 30 cells, and the vetoes
// of the two BSYNC shards4 cells fell with the frames, as a peer sent
// nothing is never gated. The n = 64 batched BSYNC cell alone was
// re-recorded when a finishing player stopped sending frames to a peer
// whose next rendezvous lies past MaxTicks: per-team stats stayed equal in
// all 30 cells. When the start became rendezvous 0 and the box terms lost
// their halving, every MSYNC and MSYNC2 cell and the six BSYNC interest
// cells were re-recorded: per-team stats stayed equal in all but the two
// batched BSYNC cells, whose replicas trail by design, and the four plain
// and shards4 BSYNC cells did not move. The
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
		{16, BSYNC, "plain", 3161, 129275, 630327600, 0},
		{16, BSYNC, "interest", 1414, 80355, 468052800, 0},
		{16, BSYNC, "shards4", 3177, 115283, 713086000, 559},
		{16, BSYNC, "interest+shards16", 1414, 68746, 468052800, 0},
		{16, BSYNC, "interest+shards4+batch3+piggyback", 1181, 72167, 271178800, 0},
		{16, MSYNC, "plain", 1223, 77770, 420612400, 0},
		{16, MSYNC, "interest", 1223, 77280, 420674000, 0},
		{16, MSYNC, "shards4", 1223, 65717, 420612400, 5},
		{16, MSYNC, "interest+shards16", 1223, 65481, 420674000, 0},
		{16, MSYNC, "interest+shards4+batch3+piggyback", 1223, 65481, 420674000, 0},
		{16, MSYNC2, "plain", 1223, 77280, 420612400, 0},
		{16, MSYNC2, "interest", 1223, 77280, 420674000, 0},
		{16, MSYNC2, "shards4", 1223, 65478, 420662400, 0},
		{16, MSYNC2, "interest+shards16", 1223, 65481, 420674000, 0},
		{16, MSYNC2, "interest+shards4+batch3+piggyback", 1223, 65481, 420674000, 0},
		{64, BSYNC, "plain", 66159, 2731112, 2753425200, 0},
		{64, BSYNC, "interest", 20085, 1112164, 2203619200, 0},
		{64, BSYNC, "shards4", 67010, 2052723, 3657883600, 33232},
		{64, BSYNC, "interest+shards16", 20085, 891082, 2203619200, 0},
		{64, BSYNC, "interest+shards4+batch3+piggyback", 11160, 855024, 898620800, 0},
		{64, MSYNC, "plain", 8968, 1004360, 1761778000, 0},
		{64, MSYNC, "interest", 8962, 982906, 1754374400, 0},
		{64, MSYNC, "shards4", 8959, 761487, 1757712800, 71},
		{64, MSYNC, "interest+shards16", 8962, 749873, 1754374400, 0},
		{64, MSYNC, "interest+shards4+batch3+piggyback", 8962, 749873, 1754374400, 0},
		{64, MSYNC2, "plain", 8970, 984718, 1761778000, 0},
		{64, MSYNC2, "interest", 8962, 982906, 1754374400, 0},
		{64, MSYNC2, "shards4", 8967, 750318, 1747820800, 0},
		{64, MSYNC2, "interest+shards16", 8962, 749873, 1754374400, 0},
		{64, MSYNC2, "interest+shards4+batch3+piggyback", 8962, 749873, 1754374400, 0},
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
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.ShardVetoes }); got != want.vetoes {
				t.Errorf("shard vetoes = %d, want %d", got, want.vetoes)
			}
		})
	}
}
