package transport

import (
	"testing"
)

// TestMailboxFIFO drives the ring through every shape it takes — filling,
// draining to empty, wrapping with a standing backlog, growing while
// wrapped — against a plain slice as the model.
func TestMailboxFIFO(t *testing.T) {
	var q mailbox[int]
	var model []int
	next := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.push(next)
			model = append(model, next)
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if got := q.pop(); got != model[0] {
				t.Fatalf("pop = %d, want %d", got, model[0])
			}
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("len = %d, want %d", q.len(), len(model))
		}
	}
	push(3)
	pop(3) // drained
	push(mailboxMinCap)
	pop(mailboxMinCap - 2) // head near the end of the ring
	push(mailboxMinCap - 4)
	pop(5) // wrapped, backlog standing
	push(3 * mailboxMinCap)
	pop(len(model)) // grown while wrapped, order kept
	for round := 0; round < 100; round++ {
		push(round%7 + 1)
		pop(round%5 + 1)
	}
	pop(len(model))
}

// TestMailboxSteadyState: a mailbox that has seen its high-water mark never
// allocates again, whether it is drained every round or carries a backlog,
// and a popped slot pins nothing.
func TestMailboxSteadyState(t *testing.T) {
	var q mailbox[*int]
	v := new(int)
	for i := 0; i < 40; i++ {
		q.push(v)
	}
	for q.len() > 7 {
		q.pop()
	}
	size := len(q.buf)
	if allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 30; i++ {
			q.push(v)
		}
		for i := 0; i < 30; i++ {
			q.pop()
		}
	}); allocs != 0 {
		t.Errorf("steady-state round allocates %.1f times", allocs)
	}
	if len(q.buf) != size {
		t.Errorf("ring grew from %d to %d slots under a load it had already held", size, len(q.buf))
	}
	for q.len() > 0 {
		q.pop()
	}
	for i, slot := range q.buf {
		if slot != nil {
			t.Fatalf("slot %d still holds a delivered item", i)
		}
	}
}
