package heap

import (
	"math/rand"
	"testing"
)

func TestStampEpochBasics(t *testing.T) {
	h := testHeap()
	p, ok := h.AllocIn(&h.Nursery, KindRecord, 4)
	if !ok {
		t.Fatal("alloc failed")
	}
	if h.SlotDirty(p, 0) {
		t.Fatal("fresh object reported dirty")
	}
	h.MarkSlotDirty(p, 0)
	if !h.SlotDirty(p, 0) {
		t.Fatal("MarkSlotDirty did not stick")
	}
	if h.SlotDirty(p, 1) {
		t.Fatal("neighbouring slot reported dirty")
	}
	h.BeginLogEpoch()
	if h.SlotDirty(p, 0) {
		t.Fatal("dirty bit survived an epoch advance")
	}
}

func TestStampWordRanges(t *testing.T) {
	h := testHeap()
	p, ok := h.AllocIn(&h.Nursery, KindBytes, 64)
	if !ok {
		t.Fatal("alloc failed")
	}
	if h.WordsDirty(p, 0, 3) {
		t.Fatal("fresh range reported dirty")
	}
	h.MarkWordsDirty(p, 1, 2)
	if !h.WordsDirty(p, 1, 2) {
		t.Fatal("marked range not dirty")
	}
	if h.WordsDirty(p, 0, 3) {
		t.Fatal("range with one clean word reported dirty")
	}
	h.MarkSlotDirty(p, 0)
	if !h.WordsDirty(p, 0, 3) {
		t.Fatal("fully marked range not dirty")
	}
}

// TestStampEpochWraparound drives the uint32 epoch counter through zero:
// EpochHook must see 1 after ^uint32(0) (0 never numbers an epoch), and no
// dirty bit may survive the advance.
func TestStampEpochWraparound(t *testing.T) {
	h := testHeap()
	p, ok := h.AllocIn(&h.Nursery, KindRecord, 2)
	if !ok {
		t.Fatal("alloc failed")
	}
	var seen []uint32
	h.EpochHook = func(e uint32) { seen = append(seen, e) }
	h.MarkSlotDirty(p, 0)
	h.logEpoch = ^uint32(0) // jump to the last epoch value
	h.MarkSlotDirty(p, 1)
	h.BeginLogEpoch()
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("EpochHook saw %v after wraparound, want [1]", seen)
	}
	if h.SlotDirty(p, 0) || h.SlotDirty(p, 1) {
		t.Fatal("dirty bits survived the epoch advance")
	}
	for w, bits := range h.dirty {
		if bits != 0 {
			t.Fatalf("bitmap word %d = %#x after the epoch advance, want 0", w, bits)
		}
	}
	h.BeginLogEpoch()
	if len(seen) != 2 || seen[1] != 2 {
		t.Fatalf("EpochHook saw %v, want [1 2]", seen)
	}
}

// epochOracle is the per-word uint32 epoch table the bitmap must agree
// with: a word is dirty iff its stamp equals the current epoch, and the
// table is cleared when the epoch wraps.
type epochOracle struct {
	stamps []uint32
	epoch  uint32
}

func (o *epochOracle) begin() {
	o.epoch++
	if o.epoch == 0 {
		clear(o.stamps)
		o.epoch = 1
	}
}

func (o *epochOracle) mark(lo, n uint64) {
	for k := lo; k < lo+n; k++ {
		o.stamps[k] = o.epoch
	}
}

func (o *epochOracle) dirty(lo, n uint64) bool {
	for k := lo; k < lo+n; k++ {
		if o.stamps[k] != o.epoch {
			return false
		}
	}
	return true
}

// TestDirtyBitmapMatchesEpochOracle drives the bitmap and the epoch oracle
// through seeded random sequences of single-word marks, range marks that
// cross 64-word boundaries, probes and epoch advances, and requires equal
// answers at every step.
func TestDirtyBitmapMatchesEpochOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h := testHeap()
		rng := rand.New(rand.NewSource(seed))
		var objs []Value
		var words []int
		for _, n := range []int{1, 3, 63, 64, 65, 200} {
			for _, s := range []*Space{&h.Nursery, h.OldFrom()} {
				p, ok := h.AllocIn(s, KindArray, n)
				if !ok {
					t.Fatal("alloc failed")
				}
				objs = append(objs, p)
				words = append(words, n)
			}
		}
		o := &epochOracle{stamps: make([]uint32, len(h.Arena)), epoch: 1}
		if seed%2 == 0 { // start near the wrap so some sequences cross it
			h.logEpoch = ^uint32(0) - 3
			o.epoch = h.logEpoch
		}
		// span picks a random object and a payload range [i, i+n) of it.
		span := func() (Value, int, int, uint64) {
			k := rng.Intn(len(objs))
			i := rng.Intn(words[k])
			n := rng.Intn(words[k] - i + 1)
			return objs[k], i, n, objs[k].index() + uint64(i)
		}
		for step := 0; step < 3000; step++ {
			p, i, n, lo := span()
			switch op := rng.Intn(20); {
			case op == 0:
				h.BeginLogEpoch()
				o.begin()
				if h.logEpoch != o.epoch {
					t.Fatalf("seed %d step %d: epoch %d, oracle %d", seed, step, h.logEpoch, o.epoch)
				}
			case op < 8:
				h.MarkSlotDirty(p, i)
				o.mark(lo, 1)
			case op < 14:
				h.MarkWordsDirty(p, i, n)
				o.mark(lo, uint64(n))
			default:
				if got, want := h.WordsDirty(p, i, n), o.dirty(lo, uint64(n)); got != want {
					t.Fatalf("seed %d step %d: WordsDirty(+%d, %d) = %v, oracle %v", seed, step, i, n, got, want)
				}
			}
			for k, q := range objs {
				for j := 0; j < words[k]; j++ {
					if got, want := h.SlotDirty(q, j), o.dirty(q.index()+uint64(j), 1); got != want {
						t.Fatalf("seed %d step %d: SlotDirty(obj %d, %d) = %v, oracle %v", seed, step, k, j, got, want)
					}
				}
			}
			if len(h.dirtyList) > len(h.dirty) {
				t.Fatalf("seed %d step %d: dirty list holds %d entries for %d bitmap words", seed, step, len(h.dirtyList), len(h.dirty))
			}
		}
	}
}
