package transport

import "time"

// Backoff produces a jittered exponential retry schedule: delays double
// from Base up to Max, and each delay is perturbed into [d/2, d] by a
// deterministic hash of the seed and the attempt number. The jitter
// prevents a mesh of nodes that lost a peer simultaneously from redialing
// in lockstep (a thundering herd against the restarted listener), while
// staying reproducible for a given seed. Both the startup dial loop and
// the reconnect path use one Backoff policy, so there is a single place
// where retry timing lives.
//
// A Backoff is not safe for concurrent use; each retry loop owns its own.
type Backoff struct {
	// Base is the first (pre-jitter) delay. Zero selects 10ms.
	Base time.Duration
	// Max caps the exponential growth. Zero selects 500ms.
	Max time.Duration
	// Seed drives the jitter; distinct seeds decorrelate retry loops.
	Seed uint64

	attempt uint64
}

// Default backoff bounds, used when Base/Max are zero.
const (
	backoffBase = 10 * time.Millisecond
	backoffMax  = 500 * time.Millisecond
)

// Next returns the delay to sleep before the next attempt and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = backoffBase
	}
	if max < base {
		max = backoffMax
		if max < base {
			max = base
		}
	}
	d := max
	// base << attempt, saturating at max without overflowing.
	if shift := b.attempt; shift < 32 {
		if exp := base << shift; exp > 0 && exp < max {
			d = exp
		}
	}
	h := splitmix64(b.Seed ^ (b.attempt+1)*0x9e3779b97f4a7c15)
	b.attempt++
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(h%uint64(half+1))
}

// DefaultMaxRetransmits is the failure detectors' budget (core's and EC's
// waits) when their config leaves it zero: the strike after this many
// unanswered retransmissions declares the silent peer crashed.
const DefaultMaxRetransmits = 3

// RetransmitBudget is max, or DefaultMaxRetransmits when max is not
// positive.
func RetransmitBudget(max int) int {
	if max > 0 {
		return max
	}
	return DefaultMaxRetransmits
}

// SuspectWait is the silence a failure detector with timeout t waits for
// after strikes strikes before it strikes again: t, 2t, 4t, 8t, 8t, ...
func SuspectWait(t time.Duration, strikes int) time.Duration { return t << min(strikes, 3) }

// splitmix64 is the SplitMix64 mixing function (same construction as the
// schedule-exploration jitter in internal/vtime): cheap, stateless, and
// well-distributed, which is all retry jitter needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
