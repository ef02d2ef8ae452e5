package transport

// mailbox is the receive queue of the in-memory and TCP endpoints: a FIFO
// ring that reuses its slots, so a mailbox that has reached its high-water
// mark never allocates again (a slice slid forward with queue[1:] makes
// append regrow its backing array for ever). A popped slot is cleared so
// the ring pins nothing it has already delivered. The zero value is an
// empty mailbox; callers provide the locking.
type mailbox[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest item
	n    int // items queued
}

// mailboxMinCap is the ring's first capacity: a rendezvous partner or two
// fit without growing, and a broadcast group doubles it a few times once.
const mailboxMinCap = 16

func (q *mailbox[T]) len() int { return q.n }

func (q *mailbox[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(2*len(q.buf), mailboxMinCap))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest item; the mailbox must not be empty.
func (q *mailbox[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
