// Package fixbarrier exercises the barrier rule: every direct touch of heap
// words outside the collector packages must be flagged with a pointer at the
// Mutator method to use instead.
package fixbarrier

import "repligc/internal/heap"

func writes(h *heap.Heap, p heap.Value) {
	h.Store(p, 0, heap.FromInt(1))
	h.StoreByte(p, 0, 7)
	h.SetBytes(p, []byte("x"))
	h.SetForward(p, p)
	h.SwapOld()
	if q, ok := h.AllocIn(h.OldFrom(), heap.KindRecord, 1); ok {
		_ = q
	}
	if q, ok := h.CopyObject(p, h.OldTo()); ok {
		_ = q
	}
}

func reads(h *heap.Heap, p heap.Value) heap.Value {
	_ = h.LoadByte(p, 0)
	_ = h.Bytes(p)
	_ = h.RawHeader(p)
	_ = len(h.Arena)
	return h.Load(p, 0)
}

// Mutator-style calls through a non-Heap receiver must not be flagged.
type wrapper struct{ inner *heap.Heap }

func (w wrapper) Load(p heap.Value, i int) heap.Value { return heap.Nil }

func fine(w wrapper, p heap.Value) heap.Value { return w.Load(p, 0) }

// The word-wide byte kernels write and read payload like their per-byte
// counterparts: both rules must know them.
func byteKernels(h *heap.Heap, dst, src heap.Value) {
	h.StoreBytes(dst, 1, []byte("yz"))
	h.CopyPayloadBytes(dst, src, 0, 16)
	h.LoadBytes(src, 0, make([]byte, 4))
}
