package lang

import (
	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
)

// bufRoots keeps every open code buffer alive for the duration of a
// compilation, independent of the handle stack's scoped discipline (buffers
// created while compiling a nested function must survive the enclosing
// expression's handle cleanup).
type bufRoots struct {
	slots []heap.Value
}

// VisitRoots implements core.RootSource.
func (r *bufRoots) VisitRoots(v core.RootVisitor) {
	for i := range r.slots {
		v(&r.slots[i])
	}
}

// blockBuf is an open code buffer for one block being compiled. The buffer
// is a mutable byte object on the simulated heap; every emitted instruction
// is stored through the mutator's (logged) byte-range path, and branch
// backpatching rewrites earlier bytes — this is the Comp workload's
// signature mutation pattern (paper §4.5: "Comp contains many mutations to
// byte data").
type blockBuf struct {
	name  string
	roots *bufRoots
	idx   int // slot in roots holding the KindBytes object
	cap   int // capacity in bytes
	n     int // instructions emitted

	// pending batches encoded instructions before they are stored to the
	// heap buffer, so sequential emission produces one logged mutation
	// per flush rather than one per instruction — ordinary emitter
	// buffering, which also matches a realistic storelist density.
	pending      [flushThreshold]byte
	npending     int // bytes of pending in use
	pendingStart int // byte offset of pending[0] in the heap buffer
}

const initialBlockCap = 16 * bytecode.EncodedSize

// flushThreshold bounds the emission buffer: eight instructions' bytes.
const flushThreshold = 8 * bytecode.EncodedSize

// newBlockBuf allocates a fresh code buffer rooted in roots.
func newBlockBuf(m *core.Mutator, roots *bufRoots, name string) *blockBuf {
	b := &blockBuf{name: name, roots: roots, cap: initialBlockCap}
	p := m.MustAllocBytes(b.cap)
	b.idx = len(roots.slots)
	roots.slots = append(roots.slots, p)
	return b
}

// obj returns the buffer's current heap object.
func (b *blockBuf) obj() heap.Value { return b.roots.slots[b.idx] }

// flush stores any pending encoded instructions into the heap buffer.
func (b *blockBuf) flush(m *core.Mutator) {
	if b.npending == 0 {
		return
	}
	m.SetByteRange(b.obj(), b.pendingStart, b.pending[:b.npending])
	b.npending = 0
}

// emit appends one instruction and returns its index.
func (b *blockBuf) emit(m *core.Mutator, ins bytecode.Instr) int {
	off := b.n * bytecode.EncodedSize
	if off+bytecode.EncodedSize > b.cap {
		b.flush(m)
		b.grow(m)
	}
	if b.npending == 0 {
		b.pendingStart = off
	}
	ins.EncodeInto(b.pending[:], b.npending)
	b.npending += bytecode.EncodedSize
	if b.npending == flushThreshold {
		b.flush(m)
	}
	m.Step(3)
	b.n++
	return b.n - 1
}

// grow doubles the buffer, block-copying the used bytes heap to heap.
func (b *blockBuf) grow(m *core.Mutator) {
	newCap := b.cap * 2
	np := m.MustAllocBytes(newCap)
	// np is freshly allocated; the old buffer is still rooted, so
	// re-reading it after the allocation is safe.
	op := b.obj()
	used := b.n * bytecode.EncodedSize
	m.CopyByteRange(np, op, used)
	m.Step(used / 4)
	b.roots.slots[b.idx] = np
	b.cap = newCap
}

// patch rewrites the instruction at index idx.
func (b *blockBuf) patch(m *core.Mutator, idx int, ins bytecode.Instr) {
	b.flush(m)
	var enc [bytecode.EncodedSize]byte
	ins.EncodeInto(enc[:], 0)
	m.SetByteRange(b.obj(), idx*bytecode.EncodedSize, enc[:])
	m.Step(3)
}

// read decodes the instruction at index idx back out of the heap buffer.
func (b *blockBuf) read(m *core.Mutator, idx int) bytecode.Instr {
	b.flush(m)
	var enc [bytecode.EncodedSize]byte
	m.GetByteRange(b.obj(), idx*bytecode.EncodedSize, enc[:])
	return bytecode.DecodeInstr(enc[:], 0)
}

// assemble decodes the finished buffer into a bytecode block. The buffer's
// bytes are read into raw, grown as needed and returned so one Go buffer
// serves a whole compilation.
func (b *blockBuf) assemble(m *core.Mutator, raw []byte) (bytecode.Block, []byte) {
	b.flush(m)
	size := b.n * bytecode.EncodedSize
	if cap(raw) < size {
		raw = make([]byte, size)
	}
	raw = raw[:size]
	m.GetByteRange(b.obj(), 0, raw)
	code := make([]bytecode.Instr, b.n)
	for i := range code {
		code[i] = bytecode.DecodeInstr(raw, i*bytecode.EncodedSize)
	}
	m.Step(b.n)
	return bytecode.Block{Name: b.name, Code: code}, raw
}
