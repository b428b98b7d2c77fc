package heap

import (
	"encoding/binary"
	"fmt"
)

// Config sizes a Heap. All quantities are bytes. The defaults mirror the
// paper's experimental ranges: nurseries of 0.2–1 MB (parameter N) that can
// be expanded while an incremental collection is pending, and old-generation
// semispaces large enough to hold all live data plus promotion headroom.
type Config struct {
	NurseryBytes    int64 // initial nursery size (the paper's N)
	NurseryCapBytes int64 // hard bound on nursery expansion
	OldSemiBytes    int64 // size of each old-generation semispace
}

// DefaultConfig returns a configuration with a 1 MB nursery expandable to
// 8 MB and 64 MB old semispaces.
func DefaultConfig() Config {
	return Config{
		NurseryBytes:    1 << 20,
		NurseryCapBytes: 8 << 20,
		OldSemiBytes:    64 << 20,
	}
}

// MaxArenaBytes bounds the arena a Config may describe: the nursery cap
// plus both old semispaces. It sits far above every configuration the
// repository runs (the largest is about 200 MB) and far below what would
// exhaust a host, so a decoder of a persisted Config can reject anything
// larger before calling New.
const MaxArenaBytes = 4 << 30

// ArenaFits reports whether a nursery cap and an old semispace size, both
// in bytes, describe an arena of at most MaxArenaBytes.
func ArenaFits(nurseryCapBytes, oldSemiBytes int64) bool {
	return nurseryCapBytes >= 0 && nurseryCapBytes <= MaxArenaBytes &&
		oldSemiBytes >= 0 && oldSemiBytes <= MaxArenaBytes &&
		nurseryCapBytes+2*oldSemiBytes <= MaxArenaBytes
}

// Heap is the simulated two-generation heap: a nursery plus two old
// semispaces over a single flat word arena.
type Heap struct {
	Arena []Value

	Nursery Space
	oldA    Space
	oldB    Space
	oldFrom *Space // current old space (minor collections promote here)
	oldTo   *Space // reserve semispace (major collections copy here)

	// Log coalescing side table (see stamp.go). dirty holds one bit per
	// Arena word; a set bit marks a word whose mutation the log already
	// retains since the last pause entry. dirtyList lists the bitmap words
	// that went nonzero since then, so BeginLogEpoch clears only those.
	// logEpoch numbers pause entries for EpochHook. The bitmap has exactly
	// one writer: serial groups run their members on one goroutine and
	// share it, and goroutine-backed groups (core.NewParallelGroup) set
	// NaiveBarrier, which never reads or marks it.
	dirty     []uint64
	dirtyList []uint32
	logEpoch  uint32

	// EpochHook, when non-nil, observes every BeginLogEpoch — the trace
	// subsystem uses it to mark coalescing epochs. The heap stays free of
	// trace (and simtime) dependencies; the hook owns its own timestamps.
	EpochHook func(epoch uint32)

	// PreEpochHook, when non-nil, runs at the very start of BeginLogEpoch,
	// before the epoch advances. Every collector begins every pause with
	// BeginLogEpoch, so this is the one heap-level point that is reliably
	// "pause entry": the multi-mutator group hangs its merge there —
	// sealing per-mutator nursery chunks and folding per-mutator mutation
	// logs into the shared log — so that no log cursor can move before the
	// merged entries are visible.
	PreEpochHook func()
}

// New builds a heap from cfg.
func New(cfg Config) *Heap {
	if cfg.NurseryBytes <= 0 || cfg.OldSemiBytes <= 0 {
		//gclint:allow panicpath -- invariant: construction-time config misuse, not resource exhaustion
		panic("heap: non-positive space size")
	}
	if cfg.NurseryCapBytes < cfg.NurseryBytes {
		cfg.NurseryCapBytes = cfg.NurseryBytes
	}
	if !ArenaFits(cfg.NurseryCapBytes, cfg.OldSemiBytes) {
		//gclint:allow panicpath -- invariant: construction-time config misuse; decoders check persisted sizes with ArenaFits first
		panic("heap: arena larger than MaxArenaBytes")
	}
	nCap := uint64(cfg.NurseryCapBytes) / BytesPerWord
	oCap := uint64(cfg.OldSemiBytes) / BytesPerWord

	// Word 0 is reserved so that Value(0) is never a valid object pointer.
	lo := uint64(1)
	words := lo + nCap + 2*oCap
	h := &Heap{Arena: make([]Value, words)}
	h.dirty = make([]uint64, (words+63)/64)
	h.logEpoch = 1
	h.Nursery = Space{Name: "nursery", Lo: lo, Cap: lo + nCap}
	h.oldA = Space{Name: "oldA", Lo: lo + nCap, Cap: lo + nCap + oCap}
	h.oldB = Space{Name: "oldB", Lo: lo + nCap + oCap, Cap: lo + nCap + 2*oCap}
	h.Nursery.Reset()
	h.oldA.Reset()
	h.oldB.Reset()
	h.Nursery.Hi = h.Nursery.Lo
	h.Nursery.SetLimitBytes(cfg.NurseryBytes)
	h.oldA.Hi = h.oldA.Cap
	h.oldB.Hi = h.oldB.Cap
	h.oldFrom = &h.oldA
	h.oldTo = &h.oldB
	return h
}

// OldFrom returns the current old space.
func (h *Heap) OldFrom() *Space { return h.oldFrom }

// OldTo returns the reserve old semispace.
func (h *Heap) OldTo() *Space { return h.oldTo }

// SwapOld exchanges the roles of the old semispaces (a major flip) and
// empties the discarded from-space.
func (h *Heap) SwapOld() {
	h.oldFrom, h.oldTo = h.oldTo, h.oldFrom
	h.oldTo.Reset()
}

// AllocIn allocates an object of kind k with length field n in space s,
// writing the header and zeroing the payload. It returns the object pointer
// and true, or Nil and false when the space lacks room below its soft limit.
func (h *Heap) AllocIn(s *Space, k Kind, n int) (Value, bool) {
	hdr := MakeHeader(k, n)
	need := uint64(hdr.SizeWords())
	if s.Next+need > s.Hi {
		return Nil, false
	}
	hi := s.Next
	s.Next += need
	h.Arena[hi] = Value(hdr)
	p := ptrFromIndex(hi + 1)
	for i := uint64(1); i < need; i++ {
		h.Arena[hi+i] = Nil
	}
	return p, true
}

// RawHeader returns the raw word in p's header slot, which is either a
// descriptor or a forwarding pointer.
func (h *Heap) RawHeader(p Value) Value { return h.Arena[p.index()-1] }

// IsForwarded reports whether p's header slot holds a forwarding pointer.
func (h *Heap) IsForwarded(p Value) bool { return !IsHeader(h.RawHeader(p)) }

// ForwardAddr returns the replica address stored in p's header slot. It is
// only meaningful when IsForwarded(p).
func (h *Heap) ForwardAddr(p Value) Value { return h.RawHeader(p) }

// SetForward overwrites p's header word with a forwarding pointer to dst,
// the non-destructive copy trick of paper §3.2: the payload stays intact so
// the mutator can keep using the original.
func (h *Heap) SetForward(p, dst Value) {
	if !dst.IsPtr() {
		//gclint:allow panicpath -- invariant: a non-pointer forwarding word is collector corruption
		panic("heap: forwarding to non-pointer")
	}
	h.Arena[p.index()-1] = dst
}

// HeaderOf returns p's descriptor, following forwarding chains (at most two
// hops: nursery→old-from→old-to). This is the mutator's getheader operation
// (paper fig. 4); callers charge the forwarding-check cost.
func (h *Heap) HeaderOf(p Value) Header {
	w := h.RawHeader(p)
	for !IsHeader(w) {
		w = h.RawHeader(w)
	}
	return Header(w)
}

// ResolveForward follows forwarding pointers from p to the newest replica.
func (h *Heap) ResolveForward(p Value) Value {
	for p.IsPtr() && h.IsForwarded(p) {
		p = h.ForwardAddr(p)
	}
	return p
}

// Load reads payload word i of object p. No forwarding check: under the
// from-space invariant the mutator always reads the original object.
func (h *Heap) Load(p Value, i int) Value { return h.Arena[p.index()+uint64(i)] }

// Store writes payload word i of object p. The write barrier lives above
// this in the mutator; Store itself is raw.
func (h *Heap) Store(p Value, i int, v Value) { h.Arena[p.index()+uint64(i)] = v }

// LoadByte reads byte i of a byte-kind object (little-endian packing).
func (h *Heap) LoadByte(p Value, i int) byte {
	w := h.Arena[p.index()+uint64(i/BytesPerWord)]
	return byte(w >> (uint(i%BytesPerWord) * 8))
}

// StoreByte writes byte i of a byte-kind object.
func (h *Heap) StoreByte(p Value, i int, b byte) {
	idx := p.index() + uint64(i/BytesPerWord)
	sh := uint(i%BytesPerWord) * 8
	w := uint64(h.Arena[idx])
	w = w&^(uint64(0xff)<<sh) | uint64(b)<<sh
	h.Arena[idx] = Value(w)
}

// LoadBytes reads len(dst) payload bytes of a byte-kind object starting at
// byte offset off. The unaligned head and tail (at most seven bytes each)
// go through LoadByte; the word-aligned body is read as whole
// little-endian words, so the result is bit-identical to a LoadByte loop.
func (h *Heap) LoadBytes(p Value, off int, dst []byte) {
	i := 0
	for ; i < len(dst) && (off+i)%BytesPerWord != 0; i++ {
		dst[i] = h.LoadByte(p, off+i)
	}
	if words := (len(dst) - i) / BytesPerWord; words > 0 {
		base := p.index() + uint64((off+i)/BytesPerWord)
		for _, w := range h.Arena[base : base+uint64(words)] {
			binary.LittleEndian.PutUint64(dst[i:], uint64(w))
			i += BytesPerWord
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = h.LoadByte(p, off+i)
	}
}

// StoreBytes writes data into the payload of a byte-kind object starting at
// byte offset off: StoreByte for the unaligned head and tail, whole
// little-endian words for the aligned body, bit-identical to a StoreByte
// loop. Bytes outside [off, off+len(data)) are untouched.
func (h *Heap) StoreBytes(p Value, off int, data []byte) {
	i := 0
	for ; i < len(data) && (off+i)%BytesPerWord != 0; i++ {
		h.StoreByte(p, off+i, data[i])
	}
	if words := (len(data) - i) / BytesPerWord; words > 0 {
		base := p.index() + uint64((off+i)/BytesPerWord)
		body := h.Arena[base : base+uint64(words)]
		for k := range body {
			body[k] = Value(binary.LittleEndian.Uint64(data[i:]))
			i += BytesPerWord
		}
	}
	for ; i < len(data); i++ {
		h.StoreByte(p, off+i, data[i])
	}
}

// Bytes copies the payload of a byte-kind object into a fresh Go slice.
func (h *Heap) Bytes(p Value) []byte {
	out := make([]byte, h.HeaderOf(p).Len())
	h.LoadBytes(p, 0, out)
	return out
}

// SetBytes writes b into the payload of a byte-kind object starting at 0.
func (h *Heap) SetBytes(p Value, b []byte) { h.StoreBytes(p, 0, b) }

// CopyPayloadBytes copies n payload bytes starting at byte offset off from
// src into the same offsets of dst — the block-copy path for reapplying a
// logged byte-range mutation to a replica, and for the mutator's byte-range
// copies (core.Mutator.CopyByteRange). The word-aligned body moves as a
// single copy() over the arena; only the unaligned head and tail (at most
// seven bytes each) fall back to byte stores, so the result is bit-identical
// to a byte-at-a-time loop at memmove speed.
func (h *Heap) CopyPayloadBytes(dst, src Value, off, n int) {
	for n > 0 && off%BytesPerWord != 0 {
		h.StoreByte(dst, off, h.LoadByte(src, off))
		off++
		n--
	}
	if words := uint64(n / BytesPerWord); words > 0 {
		si := src.index() + uint64(off/BytesPerWord)
		di := dst.index() + uint64(off/BytesPerWord)
		copy(h.Arena[di:di+words], h.Arena[si:si+words])
		off += int(words) * BytesPerWord
		n -= int(words) * BytesPerWord
	}
	for ; n > 0; n-- {
		h.StoreByte(dst, off, h.LoadByte(src, off))
		off++
	}
}

// CopyObject copies the object at src (whose descriptor must still be
// intact) into space dst, returning the replica pointer. The original is
// left untouched — installing the forwarding pointer is the caller's
// decision, which is what makes the copy non-destructive.
func (h *Heap) CopyObject(src Value, dst *Space) (Value, bool) {
	hdr := Header(h.RawHeader(src))
	if !IsHeader(Value(hdr)) {
		//gclint:allow panicpath -- invariant: callers check IsForwarded before copying
		panic("heap: CopyObject on forwarded object")
	}
	need := uint64(hdr.SizeWords())
	if dst.Next+need > dst.Hi {
		return Nil, false
	}
	di := dst.Next
	dst.Next += need
	si := src.index() - 1
	copy(h.Arena[di:di+need], h.Arena[si:si+need])
	return ptrFromIndex(di + 1), true
}

// WalkObjects visits the objects of s in address order, calling f with each
// object pointer and descriptor. Walking a space containing forwarded
// objects is not possible (their sizes are gone with their headers), so this
// is only valid for to-spaces and for quiescent heaps; it exists for
// invariant checking and tests.
func (h *Heap) WalkObjects(s *Space, f func(p Value, hdr Header) bool) {
	idx := s.Lo
	for idx < s.Next {
		w := h.Arena[idx]
		if !IsHeader(w) {
			//gclint:allow panicpath -- invariant: walked spaces hold replicas, which are never forwarded
			panic(fmt.Sprintf("heap: WalkObjects hit forwarding pointer at %#x in %s", idx, s.Name))
		}
		hdr := Header(w)
		if !f(ptrFromIndex(idx+1), hdr) {
			return
		}
		idx += uint64(hdr.SizeWords())
	}
}

// CensusEntry summarises the live objects of one kind in a space.
type CensusEntry struct {
	Count int64
	Bytes int64
}

// Census walks the allocated objects of the given spaces and tallies them
// by kind. It is only valid when no objects in those spaces carry
// forwarding pointers (i.e. at collector-quiescent points); it exists for
// tools and tests, not for the collectors themselves.
func (h *Heap) Census(spaces ...*Space) map[Kind]CensusEntry {
	out := make(map[Kind]CensusEntry)
	for _, s := range spaces {
		h.WalkObjects(s, func(p Value, hdr Header) bool {
			e := out[hdr.Kind()]
			e.Count++
			e.Bytes += hdr.SizeBytes()
			out[hdr.Kind()] = e
			return true
		})
	}
	return out
}
