package xlist

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Block-pool geometry. Blocks come in power-of-two capacities from
// minBlock. Chunks double from firstChunkBytes up to maxChunkBytes — sized
// in bytes because those are allocator size classes, so a chunk wastes
// nothing the pool did not ask for — and hold as many whole minBlocks as
// fit: a two-peer runtime stays small, an n = 128 one carves its few
// hundred first blocks out of a dozen allocations, and what a short-lived
// owner leaves uncarved is at most 4 KB. A block larger than a chunk gets a
// chunk of its own.
const (
	minBlock        = 4
	firstChunkBytes = 1 << 10
	maxChunkBytes   = 4 << 10
)

// Blocks is the storage under a runtime's or a buffer's per-peer
// bookkeeping (DESIGN.md §15, the bookkeeping rule): the sorted tables of
// pointers that grow by one element at a time — a slotted buffer's slots,
// core's per-peer delta tables, each naming its owner's Slab records — take
// their backing from one pool per owner instead of the allocator. A block is
// a []*E whose capacity is its size class; it is carved from a chunk, handed
// back with Put (or by Insert when it outgrows its class) and reused by
// whichever table of the same owner asks next. A freed block is cleared, so
// it pins nothing its last holder stored, and lists itself: its first slot
// links the next free block of its class, as a Slab's cell links the next
// record, so handing a block back allocates nothing. The zero value is an
// empty pool; it is not safe for concurrent use.
type Blocks[E any] struct {
	// free heads, per size class, the list of freed blocks, each held by
	// the address of its first slot; the class gives the capacity. The
	// invariant behind the unsafe casts: a pointer on free[class] heads
	// minBlock<<class slots of one chunk of this pool, the first holding
	// the next such pointer (or nil) and the rest nil.
	free  []**E
	chunk []*E // unused tail of the current chunk
	bytes int  // size the current chunk was allocated with
}

// get returns an empty block of capacity minBlock<<class.
func (p *Blocks[E]) get(class int) []*E {
	size := minBlock << class
	if class < len(p.free) {
		if head := p.free[class]; head != nil {
			link := (***E)(unsafe.Pointer(head))
			p.free[class], *link = *link, nil
			return unsafe.Slice(head, size)[:0]
		}
	}
	if size > len(p.chunk) {
		p.bytes = min(max(2*p.bytes, firstChunkBytes), maxChunkBytes)
		fit := p.bytes / int(unsafe.Sizeof((*E)(nil))) &^ (minBlock - 1)
		p.chunk = make([]*E, max(size, fit))
	}
	b := p.chunk[:0:size]
	p.chunk = p.chunk[size:]
	return b
}

// grow returns a block of the next size class holding old's elements, and
// frees old.
func (p *Blocks[E]) grow(old []*E) []*E {
	if cap(old) == 0 {
		return p.get(0)
	}
	b := p.get(classOf(cap(old)) + 1)[:len(old)]
	copy(b, old)
	p.Put(old)
	return b
}

// Put clears b's whole capacity and frees it. b must be a block of this pool
// (or nil); nothing may use it afterwards.
func (p *Blocks[E]) Put(b []*E) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	clear(b)
	class := classOf(len(b))
	if class >= len(p.free) {
		// Room for four classes at once: one 32-byte array, not one
		// allocation a class (8, 16, 24 and 32 bytes).
		p.free = slices.Grow(p.free, max(class+1, 4)-len(p.free))[:class+1]
	}
	head := unsafe.SliceData(b)
	*(***E)(unsafe.Pointer(head)) = p.free[class]
	p.free[class] = head
}

// Insert puts v at index i of s — a block of this pool, or nil — moving s to
// the next size class when it is full. Like append, the result replaces s; a
// pointer into s is valid until the next Insert on it.
func (p *Blocks[E]) Insert(s []*E, i int, v *E) []*E {
	if len(s) == cap(s) {
		s = p.grow(s)
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// classOf returns the size class of a block of capacity c.
func classOf(c int) int { return bits.TrailingZeros(uint(c / minBlock)) }

// Slab is the storage under records that tables name rather than hold
// (DESIGN.md §15, the bookkeeping rule): a slotted buffer's writes, each
// named by every slot it waits in, and core's delta entries, each named by
// one table. New carves a record from growing chunks, sized like Blocks'
// chunks; Free clears it and puts it on an intrusive free list, from which
// the next New of the same owner takes it. A record never moves, so a
// pointer to it is valid until it is freed. The zero value is an empty slab;
// it is not safe for concurrent use.
type Slab[T any] struct {
	free  *slabCell[T] // freed records, most recent first
	chunk []slabCell[T]
	bytes int // size the current chunk was allocated with
}

// slabCell is one record of a Slab and the free list's link. v is the first
// field, so a record's address is its cell's.
type slabCell[T any] struct {
	v    T
	next *slabCell[T] // nil while v is live
}

// New returns a zeroed record.
func (s *Slab[T]) New() *T {
	if c := s.free; c != nil {
		s.free, c.next = c.next, nil
		return &c.v
	}
	if len(s.chunk) == 0 {
		s.bytes = min(max(2*s.bytes, firstChunkBytes), maxChunkBytes)
		s.chunk = make([]slabCell[T], max(s.bytes/int(unsafe.Sizeof(slabCell[T]{})), 1))
	}
	c := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return &c.v
}

// Free clears the record v points to and hands it back. v must come from
// this slab's New; nothing may use it afterwards.
func (s *Slab[T]) Free(v *T) {
	c := (*slabCell[T])(unsafe.Pointer(v))
	*c = slabCell[T]{next: s.free}
	s.free = c
}
