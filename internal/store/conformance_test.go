package store

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"sdso/internal/diff"
)

// One conformance body, two stores: testStoreConformance drives a store
// built by a factory and the eager oracle (ref_test.go) through the same
// operations — a table of hand-written programs, random ones, and whatever
// FuzzStoreOps finds — and demands the same return values, the same error
// texts and the same Snapshot bytes after every step.

// replica is the surface the body drives: every Store method a caller uses.
type replica interface {
	Register(id ID, initial []byte) error
	View(id ID) ([]byte, error)
	Get(id ID) ([]byte, error)
	Version(id ID) (int64, error)
	WriterOf(id ID) (int, error)
	UpdateBy(id ID, data []byte, writer int) (diff.Diff, error)
	ApplyDiff(id ID, d diff.Diff, version int64) error
	ApplyDiffFrom(id ID, d diff.Diff, version int64, writer int) error
	SetState(id ID, data []byte, version int64) error
	AdoptStateFrom(id ID, data []byte, version int64, writer int) error
	Has(id ID) bool
	Len() int
	IDs() []ID
	Snapshot(floor int64) []byte
	Merge(snap []byte) (adopted int, floor int64, err error)
	Restore(snap []byte) (floor int64, err error)
	equal(other replica) bool
	clone() replica
}

type cowReplica struct{ *Store }

func (r cowReplica) equal(o replica) bool { return r.Equal(o.(cowReplica).Store) }
func (r cowReplica) clone() replica       { return cowReplica{r.Clone()} }

type refReplica struct{ *refStore }

func (r refReplica) equal(o replica) bool { return r.Equal(o.(refReplica).refStore) }
func (r refReplica) clone() replica       { return refReplica{r.refStore.Clone()} }

// registration is one object of a program's initial world.
type registration struct {
	id    ID
	state []byte
}

// storeFactory builds a replica holding world.
type storeFactory func(t testing.TB, world []registration) replica

func eagerFactory(t testing.TB, world []registration) replica {
	r := refReplica{newRefStore()}
	registerWorld(t, r, world)
	return r
}

// privateFactory registers object by object, into the store's own baseline.
func privateFactory(t testing.TB, world []registration) replica {
	r := cowReplica{New()}
	registerWorld(t, r, world)
	return r
}

// sharedFactory builds one Baseline per distinct world and stands every
// store it returns on it, the way the players of an in-process game share
// their start. verify checks that nothing the stores did reached it.
type sharedFactory struct {
	bases map[string]*sharedBase
}

type sharedBase struct {
	b    *Baseline
	snap []byte // a store over b, serialized before anything ran
}

func (f *sharedFactory) make(t testing.TB, world []registration) replica {
	key := fmt.Sprint(world)
	sb := f.bases[key]
	if sb == nil {
		sb = &sharedBase{b: new(Baseline)}
		for _, reg := range world {
			if err := sb.b.Register(reg.id, reg.state); err != nil {
				t.Fatalf("baseline Register(%d): %v", reg.id, err)
			}
		}
		sb.snap = overBaseline(t, sb.b).Snapshot(0)
		if f.bases == nil {
			f.bases = make(map[string]*sharedBase)
		}
		f.bases[key] = sb
	}
	return cowReplica{overBaseline(t, sb.b)}
}

func (f *sharedFactory) verify(t testing.TB) {
	for _, sb := range f.bases {
		if !bytes.Equal(overBaseline(t, sb.b).Snapshot(0), sb.snap) {
			t.Errorf("a shared baseline of %d objects was written through", sb.b.Len())
		}
	}
}

func overBaseline(t testing.TB, b *Baseline) *Store {
	s := New()
	if err := s.RegisterAll(b); err != nil {
		t.Fatal(err)
	}
	return s
}

func registerWorld(t testing.TB, r replica, world []registration) {
	for _, reg := range world {
		if err := r.Register(reg.id, reg.state); err != nil {
			t.Fatalf("Register(%d): %v", reg.id, err)
		}
	}
}

// The programs draw their operands from small pools, so random bytes hit
// the interesting cases: dense and sparse IDs, the edge of the ID range and
// beyond it, empty states, and states above the eager store's chunk-sharing
// limit (a quarter of its byte chunk).
var (
	opIDs = []ID{0, 1, 2, 5, 9, 15, 16, 300, MaxID - 1, MaxID, MaxID + 1, 1 << 25}
	// nearIDs leaves out the edge of the range: a store holding MaxID has
	// a million-entry index, and a program that does not need one runs a
	// thousand times faster.
	nearIDs = opIDs[:8]
)

func opState(sel, fill byte) []byte {
	sizes := []int{-1, 0, 1, 3, 8, 8, 8, 9, refMaxByteChunk/4 + 1, 5000}
	n := sizes[int(sel)%len(sizes)]
	if n < 0 {
		return nil
	}
	return bytes.Repeat([]byte{fill}, n)
}

func opWorld(sel byte) []registration {
	switch sel % 4 {
	case 1: // a dense board of 8-byte cells
		w := make([]registration, 16)
		for i := range w {
			w[i] = registration{ID(i), bytes.Repeat([]byte{byte(i)}, 8)}
		}
		return w
	case 2: // sparse, out of order, empty and large states
		return []registration{
			{9, []byte("nine")}, {1, nil}, {300, opState(8, 'L')}, {5, []byte{}}, {2, []byte("two")},
		}
	case 3: // the edge of the ID range
		return []registration{{MaxID, []byte("edge")}, {0, []byte("zero")}}
	}
	return nil
}

// Operation codes of a program; each is followed by up to four operand bytes
// (missing ones read as zero).
const (
	opRegister = iota
	opUpdateBy
	opApplyDiff
	opApplyDiffFrom
	opSetState
	opAdopt
	opMerge
	opRestore
	opClone
	opEqual
	opProbe
	numOps
)

// runStoreProgram interprets prog against two replicas from the factory and
// two from the oracle (operations name one; Merge, Restore, Clone and Equal
// involve the other), comparing every result and, after every step, the
// touched object and the whole serialized store. The arena's promises are
// checked alongside (checkPublished): they are about where bytes live, which
// no return value shows.
func runStoreProgram(t testing.TB, prog []byte, factory storeFactory) {
	if len(prog) == 0 {
		return
	}
	world := opWorld(prog[0])
	ids := nearIDs
	if prog[0]&0x80 != 0 || prog[0]%4 == 3 {
		ids = opIDs
	}
	var got, want [2]replica
	var held []heldView
	for i := range got {
		got[i], want[i] = factory(t, world), eagerFactory(t, world)
	}
	arg := func(pc, k int) byte {
		if pc+k < len(prog) {
			return prog[pc+k]
		}
		return 0
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for pc, step := 1, 0; pc < len(prog); pc, step = pc+5, step+1 {
		op := prog[pc] % numOps
		a, b, c, d := arg(pc, 1), arg(pc, 2), arg(pc, 3), arg(pc, 4)
		x := int(a>>7) & 1 // which of the two replicas
		id := ids[int(a&0x7F)%len(ids)]
		state := opState(b, c)
		version, writer := int64(d%7)-1, int(d%5)-1
		g, w := got[x], want[x]
		where := fmt.Sprintf("step %d op %d replica %d id %d", step, op, x, id)
		same := func(what string, gv, wv any) {
			if !equalValues(gv, wv) {
				t.Fatalf("%s: %s = %v, oracle %v", where, what, gv, wv)
			}
		}
		switch op {
		case opRegister:
			same("Register", errText(g.Register(id, state)), errText(w.Register(id, state)))
		case opUpdateBy:
			if cow, ok := g.(cowReplica); ok && d&0x80 != 0 {
				// The same write asked the other way: the outcome, no diff.
				gs, gver, changed, gerr := cow.WriteBy(id, state, writer)
				wd, werr := w.UpdateBy(id, state, writer)
				ws, _ := w.View(id)
				wver, _ := w.Version(id)
				same("WriteBy state", gs, ws)
				same("WriteBy version", gver, wver)
				same("WriteBy changed", changed, !wd.Empty())
				same("WriteBy err", errText(gerr), errText(werr))
				break
			}
			gd, gerr := g.UpdateBy(id, state, writer)
			wd, werr := w.UpdateBy(id, state, writer)
			same("UpdateBy diff", gd, wd)
			same("UpdateBy err", errText(gerr), errText(werr))
		case opApplyDiff, opApplyDiffFrom:
			// A diff against the current state, a whole-state replacement,
			// or one computed against something else (which may not apply).
			cur, _ := w.View(id)
			var df diff.Diff
			switch d % 3 {
			case 0:
				df = diff.Compute(cur, state)
			case 1:
				df = diff.Diff{Replace: true, Len: len(state), Runs: []diff.Run{{Data: state}}}
			case 2:
				df = diff.Compute(bytes.Repeat([]byte{'?'}, int(c)%12), state)
			}
			if op == opApplyDiff {
				same("ApplyDiff", errText(g.ApplyDiff(id, df, version)), errText(w.ApplyDiff(id, df, version)))
			} else {
				same("ApplyDiffFrom", errText(g.ApplyDiffFrom(id, df, version, writer)), errText(w.ApplyDiffFrom(id, df, version, writer)))
			}
		case opSetState:
			same("SetState", errText(g.SetState(id, state, version)), errText(w.SetState(id, state, version)))
		case opAdopt:
			gs, ws := slices.Clip(bytes.Clone(state)), bytes.Clone(state) // published as Alloc would hand it out
			same("AdoptStateFrom", errText(g.AdoptStateFrom(id, gs, version, writer)), errText(w.AdoptStateFrom(id, ws, version, writer)))
			if v, err := g.View(id); err == nil && len(gs) > 0 && &v[0] != &gs[0] {
				t.Fatalf("%s: AdoptStateFrom copied the state it was given", where)
			}
		case opMerge, opRestore:
			// The other replica's snapshot, whole, truncated or with one
			// byte damaged: a malformed snapshot may apply in part, and
			// then both must have applied the same part.
			gsnap, wsnap := got[1-x].Snapshot(int64(c)), want[1-x].Snapshot(int64(c))
			same("Snapshot of the other replica", gsnap, wsnap)
			snap := wsnap
			switch d % 4 {
			case 1:
				snap = snap[:len(snap)*int(b)/256]
			case 2:
				snap = bytes.Clone(snap)
				snap[(int(b)<<8|int(c))%len(snap)] ^= 1 << (d % 8)
			}
			if op == opMerge {
				ga, gf, gerr := g.Merge(snap)
				wa, wf, werr := w.Merge(snap)
				same("Merge adopted", ga, wa)
				same("Merge floor", gf, wf)
				same("Merge err", errText(gerr), errText(werr))
			} else {
				gf, gerr := g.Restore(snap)
				wf, werr := w.Restore(snap)
				same("Restore floor", gf, wf)
				same("Restore err", errText(gerr), errText(werr))
			}
		case opClone:
			got[1-x], want[1-x] = g.clone(), w.clone()
		case opEqual:
			same("Equal", g.equal(got[1-x]), w.equal(want[1-x]))
		}
		// The touched object through every reader, then the whole store.
		gv, gerr := g.View(id)
		wv, werr := w.View(id)
		same("View", gv, wv)
		same("View err", errText(gerr), errText(werr))
		gb, gerr := g.Get(id)
		wb, werr := w.Get(id)
		same("Get", gb, wb)
		same("Get err", errText(gerr), errText(werr))
		gver, gerr := g.Version(id)
		wver, werr := w.Version(id)
		same("Version", gver, wver)
		same("Version err", errText(gerr), errText(werr))
		gwr, gerr := g.WriterOf(id)
		wwr, werr := w.WriterOf(id)
		same("WriterOf", gwr, wwr)
		same("WriterOf err", errText(gerr), errText(werr))
		same("Has", g.Has(id), w.Has(id))
		if gerr == nil {
			held = append(held, heldView{where, gv, bytes.Clone(gv)})
		}
		for _, h := range held {
			if !bytes.Equal(h.view, h.was) {
				t.Fatalf("%s: the state read at %q changed under its holder: %x, was %x", where, h.at, h.view, h.was)
			}
		}
		if len(ids) > len(nearIDs) && step%8 != 0 && pc+5 < len(prog) {
			continue // a million-entry index: serialize every eighth step and the last
		}
		for i := range got {
			same(fmt.Sprintf("Len of replica %d", i), got[i].Len(), want[i].Len())
			same(fmt.Sprintf("IDs of replica %d", i), got[i].IDs(), want[i].IDs())
			same(fmt.Sprintf("Snapshot of replica %d", i), got[i].Snapshot(int64(step)), want[i].Snapshot(int64(step)))
		}
		checkPublished(t, where, got[:])
	}
}

// heldView is a state some earlier step read and kept, with what it held.
type heldView struct {
	at        string
	view, was []byte
}

// checkPublished holds the live states of replicas to what the arena owes
// them: a View's capacity ends where its state does, so an append through it
// reallocates instead of reaching a neighbour (the oracle's states are each
// an allocation of their own, whose slack is nobody's), and two states share memory
// only by being the same state (a clone and its origin, a replica and its
// baseline) — never by overlapping.
func checkPublished(t testing.TB, where string, replicas []replica) {
	type extent struct {
		lo, hi uintptr
		id     ID
	}
	var live []extent
	for _, r := range replicas {
		for _, id := range r.IDs() {
			v, err := r.View(id)
			if err != nil {
				t.Fatalf("%s: View(%d) of a listed ID: %v", where, id, err)
			}
			if _, oracle := r.(refReplica); !oracle && cap(v) != len(v) {
				t.Fatalf("%s: View(%d) has len %d, cap %d: an append would write past the state", where, id, len(v), cap(v))
			}
			if len(v) > 0 {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
				live = append(live, extent{lo, lo + uintptr(len(v)), id})
			}
		}
	}
	slices.SortFunc(live, func(a, b extent) int { return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi)) })
	for i := 1; i < len(live); i++ {
		if a, b := live[i-1], live[i]; b.lo < a.hi && (a.lo != b.lo || a.hi != b.hi) {
			t.Fatalf("%s: the states of objects %d and %d overlap in memory: [%#x,%#x) and [%#x,%#x)", where, a.id, b.id, a.lo, a.hi, b.lo, b.hi)
		}
	}
}

// equalValues compares two results of the same operation. Byte slices
// compare by content: nil and empty are the same state.
func equalValues(g, w any) bool {
	switch g := g.(type) {
	case []byte:
		return bytes.Equal(g, w.([]byte))
	case []ID:
		return slices.Equal(g, w.([]ID))
	case diff.Diff:
		w := w.(diff.Diff)
		return g.Replace == w.Replace && g.Len == w.Len &&
			slices.EqualFunc(g.Runs, w.Runs, func(a, b diff.Run) bool { return a.Off == b.Off && bytes.Equal(a.Data, b.Data) })
	}
	return g == w
}

// program assembles a store program: a world selector, then five bytes per
// operation.
func program(world byte, ops ...[5]byte) []byte {
	p := []byte{world}
	for _, op := range ops {
		p = append(p, op[:]...)
	}
	return p
}

// storePrograms is the table: one program per rule of the store that has
// ever been somebody's bug, or could be the overlay's.
var storePrograms = map[string][]byte{
	"empty store, unknown IDs": program(0,
		[5]byte{opProbe, 3}, [5]byte{opUpdateBy, 3, 4, 'x'}, [5]byte{opApplyDiff, 3}, [5]byte{opSetState, 3, 4},
		[5]byte{opAdopt, 3, 4}, [5]byte{opEqual}, [5]byte{opMerge}, [5]byte{opRestore}),
	"register, duplicate, out of range": program(0x80,
		[5]byte{opRegister, 1, 4, 'a'}, [5]byte{opRegister, 1, 3, 'b'}, [5]byte{opRegister, 10, 4, 'c'},
		[5]byte{opRegister, 11, 4, 'd'}, [5]byte{opRegister, 9, 1}, [5]byte{opRegister, 8, 8, 'L'}, [5]byte{opProbe, 9}),
	"first write materializes, no-op write does not": program(1,
		[5]byte{opUpdateBy, 2, 4, 2, 3}, [5]byte{opUpdateBy, 2, 4, 7, 3}, [5]byte{opUpdateBy, 2, 4, 7, 4},
		[5]byte{opUpdateBy, 3, 3, 1, 2}, [5]byte{opUpdateBy, 3, 0, 0, 2}),
	"diffs: fitting, replacing, not applying": program(1,
		[5]byte{opApplyDiff, 1, 4, 'q', 0}, [5]byte{opApplyDiff, 1, 9, 'r', 1}, [5]byte{opApplyDiff, 1, 4, 5, 2},
		[5]byte{opApplyDiffFrom, 4, 4, 's', 3}, [5]byte{opApplyDiffFrom, 4, 4, 't', 6}, [5]byte{opApplyDiffFrom, 4, 4, 'u', 0}),
	"set and adopt over the baseline": program(2,
		[5]byte{opSetState, 1, 8, 'S', 5}, [5]byte{opAdopt, 3, 4, 'A', 4}, [5]byte{opAdopt, 4, 1, 0, 2}, [5]byte{opSetState, 4, 0, 0, 0}),
	"clone, diverge, compare": program(1,
		[5]byte{opUpdateBy, 1, 4, 'x', 1}, [5]byte{opClone, 0}, [5]byte{opEqual}, [5]byte{opUpdateBy, 0x81, 4, 'y', 2},
		[5]byte{opEqual}, [5]byte{opRegister, 6, 4, 'n'}, [5]byte{opRegister, 0x86, 3, 'm'}, [5]byte{opEqual}, [5]byte{opProbe, 0x86}),
	"merge: newer wins, unknown registers": program(2,
		[5]byte{opUpdateBy, 0x84, 4, 'w', 1}, [5]byte{opRegister, 0x86, 4, 'k'}, [5]byte{opMerge, 0, 0, 3, 0},
		[5]byte{opUpdateBy, 4, 4, 'v', 1}, [5]byte{opUpdateBy, 4, 4, 'z', 1}, [5]byte{opMerge, 0x80, 0, 4, 0}, [5]byte{opEqual}),
	"merge and restore of damaged snapshots": program(1,
		[5]byte{opUpdateBy, 0x81, 4, 'w', 1}, [5]byte{opMerge, 0, 200, 0, 1}, [5]byte{opMerge, 0, 0, 40, 2},
		[5]byte{opRestore, 0, 100, 0, 1}, [5]byte{opRestore, 0, 0, 13, 2}, [5]byte{opRestore, 0, 0, 0, 0}),
	"restore drops the baseline": program(1,
		[5]byte{opUpdateBy, 0x82, 4, 'w', 1}, [5]byte{opRestore, 0, 0, 9, 0}, [5]byte{opUpdateBy, 2, 4, 'p', 2},
		[5]byte{opRegister, 6, 4, 'n'}, [5]byte{opRegister, 2, 4, 'n'}, [5]byte{opEqual}, [5]byte{opClone, 0}, [5]byte{opEqual}),
	"the edge of the ID range": program(3,
		[5]byte{opUpdateBy, 9, 4, 'e', 1}, [5]byte{opRegister, 8, 4, 'f'}, [5]byte{opMerge, 0x80, 0, 1, 0}, [5]byte{opAdopt, 10, 4}, [5]byte{opProbe, 11}),
}

func testStoreConformance(t *testing.T, factory storeFactory) {
	for name, prog := range storePrograms {
		t.Run(name, func(t *testing.T) { runStoreProgram(t, prog, factory) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 300; i++ {
			prog := make([]byte, 1+5*(1+rng.Intn(60)))
			rng.Read(prog)
			if i%50 != 0 {
				prog[0] &= 0x7F // mostly without the million-entry indexes
				if prog[0]%4 == 3 {
					prog[0]--
				}
			}
			runStoreProgram(t, prog, factory)
		}
	})
}

func TestStoreConformancePrivateBaseline(t *testing.T) {
	testStoreConformance(t, privateFactory)
}

func TestStoreConformanceSharedBaseline(t *testing.T) {
	var f sharedFactory
	testStoreConformance(t, f.make)
	f.verify(t)
}

// TestEagerOracleConformsToItself keeps the body honest: the oracle against
// itself must pass, or the body compares something a store need not keep.
func TestEagerOracleConformsToItself(t *testing.T) {
	testStoreConformance(t, eagerFactory)
}

// FuzzStoreOps runs arbitrary programs over a shared baseline (the harder
// case: registration copies it, everything else must leave it alone).
func FuzzStoreOps(f *testing.F) {
	for _, prog := range storePrograms {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1+5*32 { // long programs find nothing short ones do not, slowly
			prog = prog[:1+5*32]
		}
		var sf sharedFactory
		runStoreProgram(t, prog, sf.make)
		sf.verify(t)
		runStoreProgram(t, prog, privateFactory)
	})
}
