package lookahead

import (
	"testing"

	"sdso/internal/game"
	"sdso/internal/transport"
)

// TestGateExitsInOrder drives gate through each of its exits on a
// hand-placed board. Every row arms all the later terms to give the
// opposite answer, so a term evaluated out of order flips the verdict or
// the shard-veto count.
//
// Geometry: a 128x96 world (16 shards of 32x24), interaction radius 2,
// our one tank at (10,10), beacons fresh (staleness 0).
func TestGateExitsInOrder(t *testing.T) {
	me := game.Pos{X: 10, Y: 10}
	far := game.Pos{X: 100, Y: 80}   // aligned with nothing, outside every radius, no shared shard
	near := game.Pos{X: 12, Y: 10}   // same row, within range, same shard
	diag := game.Pos{X: 15, Y: 15}   // Manhattan 10: inside the within-range backstop (2+2*4), outside MSYNC2's own terms and the interest set
	byBox := game.Pos{X: 60, Y: 64}  // 4 blocks from the write at (60,60): inside the box-approach backstop (2+3)
	boxAt := game.Pos{X: 60, Y: 60}  // a buffered write nobody's tank is near
	boxFar := game.Pos{X: 120, Y: 5} // a buffered write far from every tank above

	cases := []struct {
		name     string
		proto    Protocol
		interest bool
		shards   int
		unknown  bool       // nothing known about the peer
		theirs   []game.Pos // peer's advertised tanks
		inSet    *game.Pos  // where the interest index believes the peer is; nil leaves it out of the set
		pending  []game.Pos // our buffered writes for the peer
		send     bool
		vetoes   int
	}{
		{name: "unknown peer sends", proto: MSYNC2, interest: true, shards: 16,
			unknown: true, send: true},
		{name: "box-approach backstop overrides every withhold", proto: MSYNC2, interest: true, shards: 16,
			theirs: []game.Pos{byBox}, pending: []game.Pos{boxAt}, send: true},
		{name: "within-range backstop overrides every withhold", proto: MSYNC2, interest: true, shards: 16,
			theirs: []game.Pos{diag}, pending: []game.Pos{boxFar}, send: true},
		{name: "within-range backstop needs buffered writes", proto: MSYNC2,
			theirs: []game.Pos{diag}, send: false},
		{name: "MSYNC withholds from unaligned peer", proto: MSYNC,
			theirs: []game.Pos{far}, send: false},
		{name: "MSYNC2 withholds from aligned peer out of range", proto: MSYNC2,
			theirs: []game.Pos{{X: 10, Y: 80}}, send: false},
		{name: "MSYNC sends to the same aligned peer", proto: MSYNC,
			theirs: []game.Pos{{X: 10, Y: 80}}, send: true},
		{name: "protocol term decides before the tank-less pass", proto: MSYNC, interest: true, shards: 16,
			theirs: nil, send: false},
		{name: "tank-less peer passes interest and shards", proto: BSYNC, interest: true, shards: 16,
			theirs: nil, send: true},
		{name: "interest withholds before residency can veto", proto: BSYNC, interest: true, shards: 16,
			theirs: []game.Pos{far}, send: false, vetoes: 0},
		{name: "residency vetoes and counts", proto: BSYNC, shards: 16,
			theirs: []game.Pos{far}, send: false, vetoes: 1},
		{name: "residency vetoes an in-set peer", proto: BSYNC, interest: true, shards: 16,
			theirs: []game.Pos{far}, inSet: &near, send: false, vetoes: 1},
		{name: "every term passes", proto: MSYNC2, interest: true, shards: 16,
			theirs: []game.Pos{near}, inSet: &near, send: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := game.DefaultConfig(2, 1)
			g.Width, g.Height = 128, 96
			net := transport.NewMemNetwork(2)
			defer net.Close()
			p, err := newPlayer(PlayerConfig{
				Game: g, Protocol: tc.proto, Endpoint: net.Endpoint(0),
				Interest: tc.interest, Shards: tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.setup(); err != nil {
				t.Fatal(err)
			}
			if p.opts.GroupWithheldSyncs != (tc.interest || tc.shards > 1) {
				t.Errorf("GroupWithheldSyncs = %v with interest=%v shards=%d",
					p.opts.GroupWithheldSyncs, tc.interest, tc.shards)
			}

			p.tanks = []game.TankState{game.NewTankState(me)}
			if tc.unknown {
				p.known[1].present = false
			} else {
				p.known[1] = knownPeer{present: true, beacon: game.Beacon{Tanks: tc.theirs}, tick: p.rt.Now()}
			}
			if p.ix != nil {
				p.ix.Drop(1)
				if tc.inSet != nil {
					p.ix.Observe(1, []game.Pos{*tc.inSet}, p.rt.Now())
					p.ix.Refresh([]game.Pos{me}, p.rt.Now())
				}
				if p.ix.Contains(1) != (tc.inSet != nil) {
					t.Fatalf("interest index Contains(1) = %v, want %v", p.ix.Contains(1), tc.inSet != nil)
				}
			}
			for _, pos := range tc.pending {
				c := game.Cell{Kind: game.Bomb}
				if p.cellAt(pos).Kind == game.Bomb {
					c = game.Cell{Kind: game.Bonus}
				}
				if err := p.rt.Write(g.ObjectOf(pos), game.EncodeCell(c)); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(p.rt.PendingObjects(1)); got != len(tc.pending) {
				t.Fatalf("%d objects buffered for the peer, want %d", got, len(tc.pending))
			}

			if got := p.gate(1); got != tc.send {
				t.Errorf("gate = %v, want %v", got, tc.send)
			}
			if got := p.mc.Snapshot().ShardVetoes; got != tc.vetoes {
				t.Errorf("shard vetoes = %d, want %d", got, tc.vetoes)
			}
		})
	}
}
