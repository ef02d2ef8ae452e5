package lookahead

// Spatial interest management for the lookahead protocols (PlayerConfig.
// Interest): the per-tick interest-set refresh and the interest-paced
// BSYNC s-function. The index itself lives in internal/interest; the
// DATA veto it feeds is the interest term of gate (gate.go).

import (
	"sdso/internal/game"
	"sdso/internal/metrics"
)

// InterestMaxStretch caps how many base periods the interest-paced BSYNC
// s-function may skip for a far peer. It bounds SYNC staleness (and the
// failure detector's silence window) regardless of world size: even the
// farthest peer rendezvouses at least every InterestMaxStretch*batch
// ticks.
const InterestMaxStretch = 4

// refreshInterest recomputes the interest set for the upcoming tick. An
// enter-radius event sends nothing: interest is a SendData term, so it
// only decides what rides on a rendezvous the s-function already chose.
// Writes withheld while the peer was out of the set reach it through the
// gate's flush backstops, not through a pull.
func (p *player) refreshInterest(tick int64) {
	if p.ix == nil {
		return
	}
	entered, left := p.ix.Refresh(p.positions(), tick)
	p.mc.Max(metrics.InterestSetPeak, p.ix.Size())
	if tick > 1 {
		// The first refresh builds the set; only later transitions are
		// churn.
		if n := len(entered) + len(left); n > 0 {
			p.mc.Add(metrics.InterestChurn, n)
		}
	}
}

// interestPacedSFunc is BSYNC's s-function under interest management:
// the every-tick (or every-batch) period is stretched by the NextDelta
// distance bound, quantized down to whole base periods and capped at
// InterestMaxStretch. Both rendezvous partners evaluate NextDelta over
// the same four inputs (each side's advertised tanks and pending-box),
// so the stretched schedule stays symmetric — the same guarantee MSYNC's
// s-function rests on — and the next rendezvous still lands before the
// two neighborhoods can interact (the quantization only rounds the bound
// down, never up, whenever the distance exceeds one base period).
func (p *player) interestPacedSFunc() func(peer int, now int64, peerBeacon []int64) int64 {
	h := p.cfg.Game.InteractionRadius()
	base := int64(1)
	if p.cfg.MaxBatchTicks > 1 {
		base = p.cfg.MaxBatchTicks
	}
	return func(peer int, now int64, peerBeacon []int64) int64 {
		kp := &p.known[peer] // OnBeacon ran just before this
		if !kp.present || len(kp.beacon.Tanks) == 0 {
			return now + base // peer about to vanish; DONE will arrive
		}
		d := game.NextDelta(h, p.positions(), p.pendingBox(peer), kp.beacon.Tanks, kp.beacon.Box)
		stretch := d / base
		if stretch < 1 {
			stretch = 1
		}
		if stretch > InterestMaxStretch {
			stretch = InterestMaxStretch
		}
		return now + stretch*base
	}
}
