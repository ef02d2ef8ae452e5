package lookahead

import (
	"testing"

	"sdso/internal/game"
)

// TestMultiTankTeamsMatchReference: the paper's teams have k tanks (its
// experiments fix k=1; the s-function is O(n^2) in team size). The
// equivalence guarantee must hold for k > 1 too: in-team sequencing via the
// local store, beacons carrying whole rosters, and the pairwise schedule
// using nearest-pair distances.
func TestMultiTankTeamsMatchReference(t *testing.T) {
	for _, tanksPer := range []int{2, 3} {
		for _, proto := range []Protocol{BSYNC, MSYNC2} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := game.DefaultConfig(4, 1)
				cfg.TanksPerTeam = tanksPer
				cfg.Seed = seed
				cfg.MaxTicks = 120
				ref, err := game.RunReference(cfg)
				if err != nil {
					t.Fatalf("reference k=%d seed=%d: %v", tanksPer, seed, err)
				}
				stats, merged := runGame(t, cfg, proto)
				for i, st := range stats {
					if st != ref.Stats[i] {
						t.Errorf("%v k=%d seed=%d team %d:\n got %+v\nwant %+v",
							proto, tanksPer, seed, i, st, ref.Stats[i])
					}
				}
				if !merged.Equal(ref.Final.Encode()) {
					t.Errorf("%v k=%d seed=%d: merged world diverges", proto, tanksPer, seed)
				}
			}
		}
	}
}
