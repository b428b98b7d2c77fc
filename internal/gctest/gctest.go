// Package gctest provides a shadow-model torture driver for validating
// garbage collectors. The driver performs a pseudo-random sequence of
// allocations, mutations and root drops through a core.Mutator while
// mirroring every operation in an ordinary Go object graph. At any
// collector-quiescent point the simulated heap can be verified against the
// shadow graph: if the collector lost an object, corrupted a replica,
// missed a logged mutation or left a stale pointer after a flip, the
// comparison fails.
package gctest

import (
	"fmt"
	"math/rand"

	"repligc/internal/core"
	"repligc/internal/heap"
)

// Node is the shadow of one heap object.
type Node struct {
	Kind  heap.Kind
	Words []Shadow // for pointer-bearing kinds
	Bytes []byte   // for byte kinds
}

// Shadow mirrors a heap.Value: nil pointer, immediate integer, or node.
type Shadow struct {
	Node  *Node
	Int   int64
	IsNil bool
}

func intShadow(i int64) Shadow  { return Shadow{Int: i} }
func nodeShadow(n *Node) Shadow { return Shadow{Node: n} }

// rootSource exposes the driver's roots to the collector.
type rootSource struct {
	slots []heap.Value
}

func (r *rootSource) VisitRoots(v core.RootVisitor) {
	for i := range r.slots {
		v(&r.slots[i])
	}
}

// Driver runs the torture workload.
type Driver struct {
	M   *core.Mutator
	rng *rand.Rand

	roots  *rootSource
	shadow []Shadow // parallel to roots.slots

	// Ops counts operations performed.
	Ops int

	// Inject, when set, runs before every operation. A fault-injection
	// plan (internal/faultinject) uses it to shrink spaces, force
	// collections or spike the mutation log at deterministic points; any
	// error it returns aborts Step with that error.
	Inject func() error
}

// NewDriver attaches a torture driver to m, seeding its PRNG with seed so
// runs are reproducible and identical across collector configurations.
func NewDriver(m *core.Mutator, seed int64) *Driver {
	d := &Driver{M: m, rng: rand.New(rand.NewSource(seed)), roots: &rootSource{}}
	m.Roots.Register(d.roots)
	return d
}

// RootCount reports the number of live driver roots.
func (d *Driver) RootCount() int { return len(d.roots.slots) }

// pickRoot returns a random root index, or -1 when none exist.
func (d *Driver) pickRoot() int {
	if len(d.roots.slots) == 0 {
		return -1
	}
	return d.rng.Intn(len(d.roots.slots))
}

// allocObject allocates a random object and roots it. Heap exhaustion is
// returned, not panicked: the exhaustion-matrix tests drive the driver into
// OOM on purpose and assert the error is typed.
func (d *Driver) allocObject() error {
	kinds := []heap.Kind{heap.KindRecord, heap.KindRef, heap.KindArray, heap.KindString, heap.KindBytes, heap.KindClosure}
	k := kinds[d.rng.Intn(len(kinds))]
	switch k {
	case heap.KindString, heap.KindBytes:
		n := d.rng.Intn(40)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(d.rng.Intn(256))
		}
		var p heap.Value
		var err error
		if k == heap.KindString {
			p, err = d.M.AllocString(b)
			if err != nil {
				return err
			}
		} else {
			p, err = d.M.AllocBytes(n)
			if err != nil {
				return err
			}
			// Fill via the (logged) byte-mutation path.
			for i, c := range b {
				d.M.SetByte(p, i, c)
			}
		}
		d.addRoot(p, nodeShadow(&Node{Kind: k, Bytes: b}))
	default:
		n := 1 + d.rng.Intn(6)
		node := &Node{Kind: k, Words: make([]Shadow, n)}
		// Choose initial contents before allocating: each randomValue may
		// reference existing roots, and allocation itself can trigger a
		// collection that rewrites root slots, so values are re-read from
		// the root table after allocation.
		type pick struct {
			rootIdx int // -1: use imm
			imm     heap.Value
			sh      Shadow
		}
		picks := make([]pick, n)
		for i := range picks {
			if j := d.pickRoot(); j >= 0 && d.rng.Intn(3) != 0 {
				picks[i] = pick{rootIdx: j}
			} else {
				v := d.rng.Int63n(1 << 20)
				picks[i] = pick{rootIdx: -1, imm: heap.FromInt(v), sh: intShadow(v)}
			}
		}
		p, err := d.M.Alloc(k, n)
		if err != nil {
			return err
		}
		for i, pk := range picks {
			if pk.rootIdx >= 0 {
				d.M.Init(p, i, d.roots.slots[pk.rootIdx])
				node.Words[i] = d.shadow[pk.rootIdx]
			} else {
				d.M.Init(p, i, pk.imm)
				node.Words[i] = pk.sh
			}
		}
		d.addRoot(p, nodeShadow(node))
	}
	return nil
}

func (d *Driver) addRoot(p heap.Value, s Shadow) {
	d.roots.slots = append(d.roots.slots, p)
	d.shadow = append(d.shadow, s)
}

// mutate rewrites a random slot of a random mutable rooted object.
func (d *Driver) mutate() {
	i := d.pickRoot()
	if i < 0 {
		return
	}
	sh := d.shadow[i]
	if sh.Node == nil {
		return
	}
	p := d.roots.slots[i]
	//gclint:dispatch
	switch sh.Node.Kind {
	case heap.KindRecord, heap.KindClosure, heap.KindString:
		// Immutable kinds cannot be mutated; a new kind added to the heap
		// must be classified here explicitly (gclint rule "exhaustive").
		return
	case heap.KindRef, heap.KindArray:
		if len(sh.Node.Words) == 0 {
			return
		}
		slot := d.rng.Intn(len(sh.Node.Words))
		// Pick the value; pointer picks are re-read from the root table at
		// store time (no allocation can intervene here, but stay uniform).
		if j := d.pickRoot(); j >= 0 && d.rng.Intn(2) == 0 {
			d.M.Set(p, slot, d.roots.slots[j])
			sh.Node.Words[slot] = d.shadow[j]
		} else {
			v := d.rng.Int63n(1 << 20)
			d.M.Set(p, slot, heap.FromInt(v))
			sh.Node.Words[slot] = intShadow(v)
		}
	case heap.KindBytes:
		if len(sh.Node.Bytes) == 0 {
			return
		}
		if d.rng.Intn(3) == 0 {
			// Coalesced range store (the compiler's code-emission path).
			off := d.rng.Intn(len(sh.Node.Bytes))
			n := 1 + d.rng.Intn(len(sh.Node.Bytes)-off)
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(d.rng.Intn(256))
			}
			d.M.SetByteRange(p, off, data)
			copy(sh.Node.Bytes[off:], data)
			return
		}
		slot := d.rng.Intn(len(sh.Node.Bytes))
		b := byte(d.rng.Intn(256))
		d.M.SetByte(p, slot, b)
		sh.Node.Bytes[slot] = b
	}
}

// dropRoot forgets a random root (making a subgraph potentially garbage).
func (d *Driver) dropRoot() {
	if len(d.roots.slots) <= 4 {
		return
	}
	i := d.pickRoot()
	last := len(d.roots.slots) - 1
	d.roots.slots[i] = d.roots.slots[last]
	d.shadow[i] = d.shadow[last]
	d.roots.slots = d.roots.slots[:last]
	d.shadow = d.shadow[:last]
}

// maxRoots bounds the driver's root table. Real mutators have small root
// sets (registers, shallow operand stacks); an unbounded table would make
// root scanning dominate every pause and distort pause-time measurements.
const maxRoots = 512

// Step performs n random operations. It stops at the first error — either
// from the Inject hook or from an allocation that exhausted the heap — so
// the driver's shadow graph stays consistent with everything that actually
// happened.
func (d *Driver) Step(n int) error {
	for k := 0; k < n; k++ {
		d.Ops++
		if d.Inject != nil {
			if err := d.Inject(); err != nil {
				return err
			}
		}
		switch r := d.rng.Intn(10); {
		case r < 5:
			if err := d.allocObject(); err != nil {
				return err
			}
		case r < 8:
			d.mutate()
		default:
			d.dropRoot()
		}
		for len(d.roots.slots) > maxRoots {
			d.dropRoot()
		}
		d.M.Step(3)
	}
	return nil
}

// Verify walks the heap from the driver's roots in lockstep with the shadow
// graph and reports the first discrepancy. It must be called at a point
// where the collector is quiescent for the *mutator's* view to be the
// from-space originals — which is every point, thanks to the from-space
// invariant; verification therefore also exercises that invariant
// mid-collection.
func (d *Driver) Verify() error {
	seen := make(map[heap.Value]*Node)
	for i, p := range d.roots.slots {
		if err := d.verifyValue(p, d.shadow[i], seen, 0); err != nil {
			return fmt.Errorf("root %d: %w", i, err)
		}
	}
	return nil
}

func (d *Driver) verifyValue(v heap.Value, s Shadow, seen map[heap.Value]*Node, depth int) error {
	switch {
	case s.IsNil:
		if v != heap.Nil {
			return fmt.Errorf("want nil, got %v", v)
		}
		return nil
	case s.Node == nil:
		if !v.IsInt() || v.Int() != s.Int {
			return fmt.Errorf("want int %d, got %v", s.Int, v)
		}
		return nil
	}
	if !v.IsPtr() {
		return fmt.Errorf("want pointer to %v node, got %v", s.Node.Kind, v)
	}
	if prev, ok := seen[v]; ok {
		if prev != s.Node {
			return fmt.Errorf("aliasing mismatch at %v", v)
		}
		return nil
	}
	seen[v] = s.Node

	hdr := d.M.Header(v)
	if hdr.Kind() != s.Node.Kind {
		return fmt.Errorf("kind mismatch: heap %v, shadow %v", hdr.Kind(), s.Node.Kind)
	}
	if s.Node.Bytes != nil || !hdr.Kind().HasPointers() {
		if hdr.Len() != len(s.Node.Bytes) {
			return fmt.Errorf("byte length mismatch: heap %d, shadow %d", hdr.Len(), len(s.Node.Bytes))
		}
		for i, b := range s.Node.Bytes {
			if g := d.M.GetByte(v, i); g != b {
				return fmt.Errorf("byte %d mismatch: heap %d, shadow %d", i, g, b)
			}
		}
		return nil
	}
	if hdr.Len() != len(s.Node.Words) {
		return fmt.Errorf("length mismatch: heap %d, shadow %d", hdr.Len(), len(s.Node.Words))
	}
	for i, ws := range s.Node.Words {
		if err := d.verifyValue(d.M.Get(v, i), ws, seen, depth+1); err != nil {
			return fmt.Errorf("%v slot %d: %w", hdr.Kind(), i, err)
		}
	}
	return nil
}

// Fingerprint produces a deterministic signature of the reachable graph for
// cross-collector differential comparison: core.Fingerprint over the
// driver's roots in slot order.
func (d *Driver) Fingerprint() uint64 {
	f := core.NewFingerprint(d.M)
	for _, p := range d.roots.slots {
		f.Walk(p)
	}
	return f.Sum()
}
