package core

import (
	"slices"

	"repligc/internal/heap"
)

// Fingerprint is an FNV-1a digest of reachable heap graphs, walked
// semantically: objects are numbered in visit order, never by address, so
// two collectors that hold the same graph in different layouts produce the
// same digest. This is the cross-collector correctness oracle of the torture
// driver and the serving engine. Callers walk their roots in their own order
// and may Mix markers between them. The walk reads through the Mutator
// (getheader follows forwarding and is charged like any header check), so
// it is safe whenever the mutator is, including between incremental
// collection steps.
type Fingerprint struct {
	m    *Mutator
	hash uint64
	ids  map[heap.Value]uint64
	buf  []byte // byte payload read buffer
}

// NewFingerprint starts an empty digest over m's heap.
func NewFingerprint(m *Mutator) *Fingerprint {
	return &Fingerprint{m: m, hash: 14695981039346656037, ids: make(map[heap.Value]uint64)}
}

// Mix folds one word into the digest.
func (f *Fingerprint) Mix(x uint64) {
	f.hash ^= x
	f.hash *= 1099511628211
}

// Walk folds the graph reachable from v into the digest. An object reached
// again folds in as a reference to its visit-order id.
func (f *Fingerprint) Walk(v heap.Value) {
	switch {
	case v == heap.Nil:
		f.Mix(1)
	case v.IsInt():
		f.Mix(2)
		f.Mix(uint64(v.Int()))
	default:
		if id, ok := f.ids[v]; ok {
			f.Mix(3)
			f.Mix(id)
			return
		}
		f.ids[v] = uint64(len(f.ids) + 1)
		hdr := f.m.Header(v)
		f.Mix(4)
		f.Mix(uint64(hdr.Kind()))
		f.Mix(uint64(hdr.Len()))
		if !hdr.Kind().HasPointers() {
			f.buf = slices.Grow(f.buf[:0], hdr.Len())[:hdr.Len()]
			f.m.GetByteRange(v, 0, f.buf)
			for _, b := range f.buf {
				f.Mix(uint64(b))
			}
			return
		}
		for i := 0; i < hdr.Len(); i++ {
			f.Walk(f.m.Get(v, i))
		}
	}
}

// Sum returns the digest of everything mixed and walked so far.
func (f *Fingerprint) Sum() uint64 { return f.hash }
