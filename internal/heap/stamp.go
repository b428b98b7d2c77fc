package heap

// The dirty bitmap: the coalescing side table for the mutation log.
//
// The replication invariant tolerates stale replicas only as recorded in the
// mutation log, and log entries carry no values — the collector re-reads the
// slot from the original at apply time. Two entries for the same slot in the
// same collection cycle are therefore redundant: applying either one copies
// the slot's *current* contents. The side table below lets the write barrier
// detect that redundancy with one load and one bit test.
//
// Each arena word has one bit. A set bit means: the log already retains an
// entry covering this word, appended since the last pause entry. Log cursors
// only advance during pauses, and every pause begins with BeginLogEpoch,
// which clears every bit before any cursor moves, so a set bit can never
// vouch for an entry a cursor has already consumed. The barrier may then
// skip the append entirely. Clearing at pause entry is exact, not
// conservative: a bit is set if and only if its word was marked since the
// last BeginLogEpoch, so the barrier skips exactly the appends that are
// redundant within the current epoch.
//
// Clearing costs O(words marked), not O(arena): the dirty list records each
// bitmap word the first time it goes from zero to nonzero in an epoch, and
// BeginLogEpoch zeroes exactly the listed words. The bitmap is arena/64 bytes
// of host memory; the list holds at most one entry per bitmap word and keeps
// its backing array across epochs.

// BeginLogEpoch starts a new coalescing epoch, clearing every dirty bit.
// Collectors call it on entry to each pause, before any log cursor moves.
// The epoch counter only numbers EpochHook events; it wraps from the last
// uint32 value to 1.
func (h *Heap) BeginLogEpoch() {
	if h.PreEpochHook != nil {
		h.PreEpochHook()
	}
	for _, w := range h.dirtyList {
		h.dirty[w] = 0
	}
	h.dirtyList = h.dirtyList[:0]
	h.logEpoch++
	if h.logEpoch == 0 {
		h.logEpoch = 1
	}
	if h.EpochHook != nil {
		h.EpochHook(h.logEpoch)
	}
}

// SlotDirty reports whether payload word i of object p was already marked
// dirty in the current epoch, i.e. whether the mutation log still retains an
// unconsumed entry covering the word. This is the write barrier's fast-path
// load and bit test.
func (h *Heap) SlotDirty(p Value, i int) bool {
	idx := p.index() + uint64(i)
	return h.dirty[idx>>6]&(1<<(idx&63)) != 0
}

// MarkSlotDirty marks payload word i of object p dirty in the current epoch.
// The caller must have appended (or be about to append, within the same
// mutator operation) a log entry covering the word.
func (h *Heap) MarkSlotDirty(p Value, i int) {
	idx := p.index() + uint64(i)
	h.markBits(idx>>6, 1<<(idx&63))
}

// WordsDirty reports whether payload words [i, i+n) of object p are all
// marked in the current epoch. Byte-range stores coalesce at word
// granularity, so their fast path needs the conjunction over the covered
// words.
func (h *Heap) WordsDirty(p Value, i, n int) bool {
	lo := p.index() + uint64(i)
	hi := lo + uint64(n)
	for lo < hi {
		w := lo >> 6
		m := rangeMask(lo, hi)
		if h.dirty[w]&m != m {
			return false
		}
		lo = (w + 1) << 6
	}
	return true
}

// MarkWordsDirty marks payload words [i, i+n) of object p dirty in the
// current epoch.
func (h *Heap) MarkWordsDirty(p Value, i, n int) {
	lo := p.index() + uint64(i)
	hi := lo + uint64(n)
	for lo < hi {
		w := lo >> 6
		h.markBits(w, rangeMask(lo, hi))
		lo = (w + 1) << 6
	}
}

// markBits sets mask m in bitmap word w, listing w for the next
// BeginLogEpoch if it was clear.
func (h *Heap) markBits(w, m uint64) {
	old := h.dirty[w]
	if old == 0 {
		h.dirtyList = append(h.dirtyList, uint32(w))
	}
	h.dirty[w] = old | m
}

// rangeMask returns the mask, within bitmap word lo>>6, of the arena words
// in [lo, hi) that the word covers. It requires lo < hi.
func rangeMask(lo, hi uint64) uint64 {
	m := ^uint64(0) << (lo & 63)
	if end := lo&^63 + 64; hi < end {
		m &= ^uint64(0) >> (end - hi)
	}
	return m
}
