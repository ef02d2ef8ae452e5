// Seeded delivery jitter for schedule exploration. The consistency oracle
// (internal/check) wants to observe the protocols under many different —
// but reproducible — message delivery orders; Jitter perturbs any base
// LinkModel's delivery times with a deterministic per-message offset
// derived from a seed, so each seed is one explored schedule.
package vtime

import "time"

// Jitter wraps base so every delivered message is delayed by a
// deterministic pseudo-random offset in [0, max), derived from seed, the
// directed link, and the per-link message ordinal. Per-link FIFO order is
// preserved (a later send on the same directed link is never delivered
// before an earlier one), matching the in-order guarantee of the transports
// the protocols run over. The returned model
// keeps per-link state and must not be shared across simulations.
func Jitter(base LinkModel, seed uint64, max time.Duration) LinkModel {
	if max <= 0 {
		return base
	}
	return &jitterModel{
		base: base,
		seed: seed,
		max:  max,
		ctr:  make(map[[2]int]uint64),
		last: make(map[[2]int]Time),
	}
}

type jitterModel struct {
	base LinkModel
	seed uint64
	max  time.Duration
	ctr  map[[2]int]uint64 // messages sent per directed link
	last map[[2]int]Time   // latest delivery handed out per directed link
}

// Delivery implements LinkModel.
func (j *jitterModel) Delivery(from, to, size int, now Time) Time {
	t := j.base.Delivery(from, to, size, now)
	k := [2]int{from, to}
	n := j.ctr[k]
	j.ctr[k] = n + 1
	h := splitmix64(j.seed ^ uint64(from)<<40 ^ uint64(to)<<20 ^ n)
	t += Time(h % uint64(j.max))
	// Clamp to the link's latest delivery so jitter never reorders a
	// directed link's messages.
	if prev, ok := j.last[k]; ok && t < prev {
		t = prev
	}
	j.last[k] = t
	return t
}

// splitmix64 is the SplitMix64 mixing function — cheap, stateless, and
// well-distributed, which is all a schedule perturbation needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
