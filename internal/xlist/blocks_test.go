package xlist

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// pinned is an element that can pin memory, like a deltaEntry's state or an
// ObjDiff's runs.
type pinned struct {
	key  int
	data []byte
}

func TestBlocksFreedBlockIsZeroed(t *testing.T) {
	var p Blocks[pinned]
	b := p.get(1)
	for i := 0; i < cap(b); i++ {
		b = append(b, &pinned{key: i + 1, data: []byte{1}})
	}
	p.Put(b[:2]) // a shorter view frees — and clears — the whole block
	// The first slot links the free list.
	for i, e := range b[1:cap(b)] {
		if e != nil {
			t.Fatalf("element %d of the freed block still holds %+v", i+1, e)
		}
	}
	p.Put(nil) // the empty table's reset: nothing to free
}

func TestBlocksGrowPreservesContentsAndOrder(t *testing.T) {
	var p Blocks[pinned]
	var b []*pinned
	for i := 0; i < 100; i++ {
		if len(b) == cap(b) {
			old := b
			b = p.grow(b)
			if len(b) != len(old) || cap(b) != max(2*cap(old), minBlock) {
				t.Fatalf("grow(len %d cap %d) = len %d cap %d", len(old), cap(old), len(b), cap(b))
			}
			for j, e := range old[:cap(old)] {
				if j > 0 && e != nil { // the first slot links the free list
					t.Fatalf("grow left %+v in element %d of the block it freed", e, j)
				}
			}
		}
		b = append(b, &pinned{key: i})
		for j, e := range b {
			if e.key != j {
				t.Fatalf("after %d appends element %d holds key %d", i+1, j, e.key)
			}
		}
	}
}

func TestBlocksReuseFreedStorage(t *testing.T) {
	var p Blocks[pinned]
	for class := 0; class < 4; class++ {
		a := p.get(class)[:1]
		other := p.get(class)[:1]
		p.Put(a)
		again := p.get(class)[:1]
		if &again[0] != &a[0] {
			t.Errorf("class %d: get after put returned other storage", class)
		}
		if cap(again) != minBlock<<class || &other[0] == &again[0] {
			t.Errorf("class %d: cap %d, or a live block handed out twice", class, cap(again))
		}
		p.Put(again)
		p.Put(other)
	}
	// A freed block serves its own class only.
	small := p.get(0)[:1]
	p.Put(small)
	if big := p.get(1)[:1]; &big[0] == &small[0] {
		t.Error("a class-0 block was handed out as class 1")
	}
}

// TestBlocksTablesMatchSlices grows many sorted tables out of one pool the
// way the slotted buffer and the delta tables do — Insert at the sorted
// position, Put on reset — against plain slices, and checks along the way
// that no two live blocks share storage: an append through one block's
// capacity, or a block handed out while still held, would show up as one
// table's contents in another.
func TestBlocksTablesMatchSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Blocks[pinned]
	const tables = 40
	got, want := make([][]*pinned, tables), make([][]pinned, tables)
	for step := 0; step < 20000; step++ {
		i := rng.Intn(tables)
		if rng.Intn(60) == 0 {
			p.Put(got[i])
			got[i], want[i] = nil, nil
			continue
		}
		key := i*1000 + rng.Intn(200) // keys are unique to a table
		at, found := slices.BinarySearchFunc(want[i], key, func(e pinned, k int) int { return e.key - k })
		if found {
			continue
		}
		got[i] = p.Insert(got[i], at, &pinned{key: key})
		want[i] = slices.Insert(want[i], at, pinned{key: key})
		if c := cap(got[i]); c&(c-1) != 0 || c < minBlock || c >= 2*max(len(got[i]), minBlock) {
			t.Fatalf("step %d: table of %d elements sits in a block of %d", step, len(got[i]), c)
		}
	}
	for i := range got {
		if !slices.EqualFunc(got[i], want[i], func(a *pinned, b pinned) bool { return a.key == b.key }) {
			t.Fatalf("table %d diverged from its slice: %v, want %v", i, got[i], want[i])
		}
		for _, e := range got[i][len(got[i]):cap(got[i])] {
			if e != nil {
				t.Fatalf("table %d: key %d beyond the table's length", i, e.key)
			}
		}
	}
}

// TestBlocksFreeListAllocatesNothing checks that handing blocks back costs
// no allocation: once the pool has grown a table through every class it
// will use, growing tables through the classes again and freeing them
// allocates nothing, since a freed block lists itself. A block freed, kept
// on the list across a collection and taken again comes back cleared — its
// link slot included.
func TestBlocksFreeListAllocatesNothing(t *testing.T) {
	var p Blocks[pinned]
	e := &pinned{key: 1}
	cycle := func() {
		var tables [4][]*pinned
		for i := 0; i < 4*minBlock<<5; i++ {
			k := i % len(tables)
			tables[k] = p.Insert(tables[k], len(tables[k]), e)
		}
		for _, b := range tables {
			p.Put(b)
		}
	}
	cycle() // warm: carve the chunks and the class heads
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("growing and freeing tables allocates %v times a cycle once warm", n)
	}
	// More blocks of a class than were ever free at once: a list kept
	// beside the blocks would grow here.
	held := make([][]*pinned, 1000)
	for i := range held {
		held[i] = p.get(0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range held {
		p.Put(b)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("freeing %d blocks allocated %d times", len(held), n)
	}

	for class := 0; class < 3; class++ {
		b := p.get(class)
		for range cap(b) {
			b = append(b, e)
		}
		p.Put(b)
		runtime.GC()
		again := p.get(class)
		if &again[:1][0] != &b[0] {
			t.Fatalf("class %d: the freed block was not the one taken again", class)
		}
		for i, v := range again[:cap(again)] {
			if v != nil {
				t.Fatalf("class %d: slot %d of a block taken again holds %p", class, i, v)
			}
		}
		p.Put(again)
	}
}
