package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// loopSetByteRange is SetByteRange before the word-wide kernels: a StoreByte
// per byte, then the barrier inline. It is the oracle the kernels and the
// shared logByteRange tail are checked against.
func loopSetByteRange(m *Mutator, p heap.Value, off int, data []byte) {
	for i, b := range data {
		m.H.StoreByte(p, off+i, b)
	}
	if m.Policy != LogAllMutations || len(data) == 0 {
		return
	}
	if m.NaiveBarrier {
		m.logMutation(LogEntry{Obj: p, Slot: int32(off), Len: int32(len(data)), Byte: true})
		return
	}
	w0 := off / heap.BytesPerWord
	nw := (off+len(data)-1)/heap.BytesPerWord - w0 + 1
	if m.skipByteWordsLog(p, w0, nw) {
		return
	}
	m.logMutation(LogEntry{
		Obj:  p,
		Slot: int32(w0 * heap.BytesPerWord),
		Len:  int32(nw * heap.BytesPerWord),
		Byte: true,
	})
}

// loopCopyByteRange is the compiler's old buffer growth: read the bytes
// out one at a time into a Go chunk, then store the chunk.
func loopCopyByteRange(m *Mutator, dst, src heap.Value, n int) {
	chunk := make([]byte, n)
	for i := range chunk {
		chunk[i] = m.H.LoadByte(src, i)
	}
	loopSetByteRange(m, dst, 0, chunk)
}

// byteRangeFixture is one mutator with byte objects on each barrier path:
// unreplicated nursery objects (fast skip), old-space objects (dirty-bit
// path) and a nursery object forwarded to an old replica (dirty-bit path
// too, since its replica must see the store).
type byteRangeFixture struct {
	m    *Mutator
	objs []heap.Value
}

func newByteRangeFixture(policy LogPolicy, naive bool, lens []int) *byteRangeFixture {
	h := heap.New(heap.Config{NurseryBytes: 64 << 10, OldSemiBytes: 64 << 10})
	m := NewMutator(h, simtime.NewClock(), simtime.Default1993(), policy)
	m.NaiveBarrier = naive
	f := &byteRangeFixture{m: m}
	for i, n := range lens {
		space := &h.Nursery
		if i%3 == 1 {
			space = h.OldFrom()
		}
		p, ok := h.AllocIn(space, heap.KindBytes, n)
		if !ok {
			panic("fixture allocation failed")
		}
		if i%3 == 2 {
			r, ok := h.CopyObject(p, h.OldFrom())
			if !ok {
				panic("fixture replica allocation failed")
			}
			h.SetForward(p, r)
		}
		f.objs = append(f.objs, p)
	}
	return f
}

// logged returns every retained log entry.
func (f *byteRangeFixture) logged() []LogEntry {
	var es []LogEntry
	for s := f.m.Log.Base(); s < f.m.Log.Len(); s++ {
		es = append(es, f.m.Log.At(s))
	}
	return es
}

// TestByteRangeBarrierMatchesByteLoop drives identical seeded sequences of
// range stores, range copies and pause-entry epochs through the word-wide
// SetByteRange/CopyByteRange and through the byte-loop oracle, under both
// policies and the naive barrier. The log entries, the barrier counters and
// the arena must agree after every operation.
func TestByteRangeBarrierMatchesByteLoop(t *testing.T) {
	for _, mode := range []struct {
		name   string
		policy LogPolicy
		naive  bool
	}{
		{"all", LogAllMutations, false},
		{"pointers-only", LogPointersOnly, false},
		{"naive", LogAllMutations, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				lens := make([]int, 9)
				for i := range lens {
					lens[i] = 1 + rng.Intn(150)
				}
				got := newByteRangeFixture(mode.policy, mode.naive, lens)
				want := newByteRangeFixture(mode.policy, mode.naive, lens)
				for op := 0; op < 2000; op++ {
					i := rng.Intn(len(lens))
					var desc string
					switch r := rng.Intn(10); {
					case r == 0:
						got.m.H.BeginLogEpoch()
						want.m.H.BeginLogEpoch()
						desc = "epoch"
					case r < 4:
						j := rng.Intn(len(lens))
						if j == i {
							j = (j + 1) % len(lens)
						}
						n := rng.Intn(min(lens[i], lens[j]) + 1)
						got.m.CopyByteRange(got.objs[i], got.objs[j], n)
						loopCopyByteRange(want.m, want.objs[i], want.objs[j], n)
						desc = fmt.Sprintf("copy %d<-%d n=%d", i, j, n)
					default:
						off := rng.Intn(lens[i] + 1)
						data := make([]byte, rng.Intn(lens[i]-off+1))
						rng.Read(data)
						got.m.SetByteRange(got.objs[i], off, data)
						loopSetByteRange(want.m, want.objs[i], off, data)
						desc = fmt.Sprintf("set %d off=%d n=%d", i, off, len(data))
					}
					if !slices.Equal(got.logged(), want.logged()) {
						t.Fatalf("seed %d op %d (%s): log %v, byte loop %v", seed, op, desc, got.logged(), want.logged())
					}
					g, w := got.m, want.m
					if g.LogWrites != w.LogWrites || g.BarrierDirtySkips != w.BarrierDirtySkips || g.BarrierFastSkips != w.BarrierFastSkips {
						t.Fatalf("seed %d op %d (%s): counters writes/dirty/fast %d/%d/%d, byte loop %d/%d/%d", seed, op, desc,
							g.LogWrites, g.BarrierDirtySkips, g.BarrierFastSkips, w.LogWrites, w.BarrierDirtySkips, w.BarrierFastSkips)
					}
					if g.Clock.Now() != w.Clock.Now() {
						t.Fatalf("seed %d op %d (%s): clock %v, byte loop %v", seed, op, desc, g.Clock.Now(), w.Clock.Now())
					}
					if !slices.Equal(g.H.Arena, w.H.Arena) {
						t.Fatalf("seed %d op %d (%s): arena differs from the byte loop", seed, op, desc)
					}
				}
				g := got.m
				if mode.policy == LogAllMutations && !mode.naive && (g.LogWrites == 0 || g.BarrierDirtySkips == 0 || g.BarrierFastSkips == 0) {
					t.Fatalf("seed %d: writes/dirty/fast %d/%d/%d; the fixture misses a barrier path", seed, g.LogWrites, g.BarrierDirtySkips, g.BarrierFastSkips)
				}
			}
		})
	}
}
