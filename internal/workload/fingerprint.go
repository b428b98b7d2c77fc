package workload

// The end-of-run heap fingerprint: core.Fingerprint over the reachable
// session graph, so two collectors that served the same trace correctly
// produce the same fingerprint even though they laid the heap out
// differently. This is the cross-collector correctness oracle of the
// determinism matrix.

import "repligc/internal/core"

// heapFingerprint walks every session root in (cohort, slot) order. The
// engine's root tables are a prefix of the handle stack, pushed in that
// order before any request ran; enumerate them the same way. Cohort
// boundaries are mixed in so an empty cohort still shapes the digest.
func heapFingerprint(m *core.Mutator, spec *Spec, t *Trace) uint64 {
	f := core.NewFingerprint(m)
	slotCounts := t.slotCount()
	h := core.Handle(0)
	for ci := range spec.Cohorts {
		f.Mix(5)
		f.Mix(uint64(ci))
		for s := int32(0); s < slotCounts[ci]; s++ {
			f.Walk(m.HandleVal(h))
			h++
		}
	}
	return f.Sum()
}
