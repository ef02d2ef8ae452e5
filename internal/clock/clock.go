// Package clock provides the vector clocks the causal-memory baseline of
// §2.3 stamps its updates with. The lookahead protocols need only integer
// timestamps — the paper notes BSYNC "does not require vector timestamps"
// — and keep them in the runtime's tick.
package clock

// Vector is a vector clock over a fixed-size process group.
type Vector []int64

// NewVector returns a zero vector clock for n processes.
func NewVector(n int) Vector { return make(Vector, n) }

// Tick increments process i's component and returns its new value.
func (v Vector) Tick(i int) int64 {
	v[i]++
	return v[i]
}

// Merge folds other into v component-wise (max).
func (v Vector) Merge(other Vector) {
	for i := range v {
		if i < len(other) && other[i] > v[i] {
			v[i] = other[i]
		}
	}
}

// Ints returns the vector's components for embedding in a wire message.
func (v Vector) Ints() []int64 { return append([]int64(nil), v...) }

// VectorFromInts reconstructs a vector clock from wire data.
func VectorFromInts(ints []int64) Vector { return append(Vector(nil), ints...) }

// CausallyReady reports whether an update stamped with msgClock from sender
// may be applied at a receiver whose clock is local: every event the sender
// had seen must already be seen locally, and the update must be the
// sender's next unseen event. This is the standard causal-broadcast
// delivery condition.
func CausallyReady(msgClock, local Vector, sender int) bool {
	if sender < 0 || sender >= len(msgClock) {
		return false
	}
	for i := range msgClock {
		if i == sender {
			if msgClock[i] != localAt(local, i)+1 {
				return false
			}
			continue
		}
		if msgClock[i] > localAt(local, i) {
			return false
		}
	}
	return true
}

func localAt(v Vector, i int) int64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}
