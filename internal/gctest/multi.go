package gctest

// MultiDriver tortures a multi-mutator group: one shadow-model Driver per
// member, interleaved in round-robin quanta through core.Group.Run, plus a
// shared mutable array that every member hammers. The shared array is what
// exercises the cross-log paths — members logging mutations of the same
// object (often the same slot) from different private logs within one
// coalescing epoch, which the pause-entry merge must fold into the shared
// log without losing or double-applying anything.

import (
	"fmt"
	"math/rand"

	"repligc/internal/core"
	"repligc/internal/heap"
)

// sharedSlots is the size of the contended array. Small on purpose: fewer
// slots means more same-slot collisions across members' logs.
const sharedSlots = 8

// MultiDriver drives every member of a group.
type MultiDriver struct {
	G       *core.Group
	Drivers []*Driver

	shared core.Handle  // member 0's handle to the contended array
	rngs   []*rand.Rand // per-member streams for shared-array stores
}

// NewMultiDriver attaches one Driver per group member, seeding member i
// with seed+i*9973 so the per-member op streams are distinct but
// reproducible, and allocates the shared contended array rooted through
// member 0's handle stack (the shared RootSet keeps it live for everyone).
func NewMultiDriver(g *core.Group, seed int64) (*MultiDriver, error) {
	md := &MultiDriver{G: g}
	for i, m := range g.Members {
		md.Drivers = append(md.Drivers, NewDriver(m, seed+int64(i)*9973))
		md.rngs = append(md.rngs, rand.New(rand.NewSource(seed^int64(i+1)<<32)))
	}
	p, err := g.Members[0].Alloc(heap.KindArray, sharedSlots)
	if err != nil {
		return nil, err
	}
	md.shared = g.Members[0].PushHandle(p)
	return md, nil
}

// Step runs one round: each member in turn gets a quantum of n driver
// operations plus one store into the shared array, scheduled through
// Group.Run so the wall-timeline accounting observes every quantum.
func (md *MultiDriver) Step(n int) error {
	for i := range md.Drivers {
		d := md.Drivers[i]
		err := md.G.Run(i, func(m *core.Mutator) error {
			if err := d.Step(n); err != nil {
				return err
			}
			// Contended store: the slot ranges of the members overlap, so
			// distinct private logs carry entries for the same (Obj, Slot)
			// within one epoch and the merge's canonical dedup fires.
			rng := md.rngs[i]
			p := md.G.Members[0].HandleVal(md.shared)
			m.Set(p, rng.Intn(sharedSlots), heap.FromInt(rng.Int63n(1<<20)))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Verify checks every member's shadow graph.
func (md *MultiDriver) Verify() error {
	for i, d := range md.Drivers {
		if err := d.Verify(); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}
	return nil
}

// Fingerprint combines the members' reachable-graph fingerprints with the
// shared array's contents into one address-independent signature.
func (md *MultiDriver) Fingerprint() uint64 {
	m := md.G.Members[0]
	f := core.NewFingerprint(m)
	for _, d := range md.Drivers {
		f.Mix(d.Fingerprint())
	}
	p := m.HandleVal(md.shared)
	for i := 0; i < sharedSlots; i++ {
		v := m.Get(p, i)
		if v.IsInt() {
			f.Mix(uint64(v.Int()))
		} else {
			f.Mix(uint64(v))
		}
	}
	return f.Sum()
}
