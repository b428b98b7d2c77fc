package heap

import (
	"math/rand"
	"slices"
	"testing"
)

// byteCase is one (object length, offset, count) range over a byte object.
type byteCase struct{ objLen, off, n int }

// byteCases lists the word-boundary edges explicitly, then adds seeded
// random ranges: zero length, ranges inside one word, ranges that start or
// end on a word boundary or one byte either side of it, and ranges that end
// at the object's last byte.
func byteCases(rng *rand.Rand) []byteCase {
	cs := []byteCase{
		{1, 0, 0}, {1, 0, 1}, {8, 0, 8}, {8, 3, 0}, {8, 3, 4}, {8, 7, 1},
		{9, 0, 9}, {9, 8, 1}, {16, 7, 2}, {16, 1, 14}, {17, 1, 16},
		{24, 8, 8}, {24, 9, 15}, {63, 0, 63}, {64, 5, 59}, {72, 0, 72},
		{100, 7, 90}, {100, 16, 84}, {100, 99, 1}, {100, 50, 0},
	}
	for len(cs) < 600 {
		objLen := 1 + rng.Intn(120)
		off := rng.Intn(objLen + 1)
		n := rng.Intn(objLen - off + 1)
		switch rng.Intn(4) {
		case 0: // end at the last byte
			n = objLen - off
		case 1: // stay inside one word
			if r := BytesPerWord - off%BytesPerWord; n > r {
				n = r
			}
		}
		cs = append(cs, byteCase{objLen, off, n})
	}
	return cs
}

// twinHeaps builds two heaps holding the same byte object of length objLen
// between two guard objects, with every word of the region (padding past
// Len included) filled with the same random garbage.
func twinHeaps(rng *rand.Rand, objLen int) (a, b *Heap, p Value, lo, hi uint64) {
	cfg := Config{NurseryBytes: 4 << 10, OldSemiBytes: 4 << 10}
	a, b = New(cfg), New(cfg)
	for _, h := range []*Heap{a, b} {
		if _, ok := h.AllocIn(&h.Nursery, KindBytes, 8); !ok {
			panic("alloc")
		}
		q, ok := h.AllocIn(&h.Nursery, KindBytes, objLen)
		if !ok {
			panic("alloc")
		}
		p = q
		if _, ok := h.AllocIn(&h.Nursery, KindBytes, 8); !ok {
			panic("alloc")
		}
	}
	lo, hi = a.Nursery.Lo, a.Nursery.Next
	for i := lo; i < hi; i++ {
		if i == p.index()-1 || i == lo || i == hi-2 {
			continue // keep the three headers intact
		}
		w := Value(rng.Uint64())
		a.Arena[i], b.Arena[i] = w, w
	}
	return a, b, p, lo, hi
}

// TestByteKernelsMatchByteLoop is the differential test of the word-wide
// byte kernels against LoadByte/StoreByte loops: LoadBytes must read the
// same bytes, and StoreBytes and CopyPayloadBytes must leave every arena
// word of the region — neighbours, headers and the padding bytes past Len —
// exactly as the loop does.
func TestByteKernelsMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range byteCases(rng) {
		a, b, p, lo, hi := twinHeaps(rng, c.objLen)

		got := make([]byte, c.n)
		a.LoadBytes(p, c.off, got)
		want := make([]byte, c.n)
		for i := range want {
			want[i] = a.LoadByte(p, c.off+i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: LoadBytes %x, byte loop %x", c, got, want)
		}

		data := make([]byte, c.n)
		rng.Read(data)
		a.StoreBytes(p, c.off, data)
		for i, x := range data {
			b.StoreByte(p, c.off+i, x)
		}
		if !slices.Equal(a.Arena[lo:hi], b.Arena[lo:hi]) {
			t.Fatalf("%+v: StoreBytes arena differs from the byte loop", c)
		}

		// Copy the same range from a second object of the same length.
		src, _ := a.AllocIn(&a.Nursery, KindBytes, c.objLen)
		b.AllocIn(&b.Nursery, KindBytes, c.objLen)
		fill := make([]byte, c.objLen)
		rng.Read(fill)
		a.SetBytes(src, fill)
		for i, x := range fill {
			b.StoreByte(src, i, x)
		}
		a.CopyPayloadBytes(p, src, c.off, c.n)
		for i := c.off; i < c.off+c.n; i++ {
			b.StoreByte(p, i, b.LoadByte(src, i))
		}
		if !slices.Equal(a.Arena[lo:a.Nursery.Next], b.Arena[lo:b.Nursery.Next]) {
			t.Fatalf("%+v: CopyPayloadBytes arena differs from the byte loop", c)
		}
	}
}

// TestBytesRoundTrip checks the whole-payload wrappers over the kernels.
func TestBytesRoundTrip(t *testing.T) {
	h := testHeap()
	for n := 0; n <= 33; n++ {
		p, _ := h.AllocIn(&h.Nursery, KindString, n)
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(3*i + n)
		}
		h.SetBytes(p, in)
		if out := h.Bytes(p); !slices.Equal(out, in) {
			t.Fatalf("len %d: Bytes %x after SetBytes %x", n, out, in)
		}
	}
}
