package core_test

// Wall-clock micro-benchmarks of the substrate itself (as opposed to the
// simulated-time paper experiments in the repo root): allocation, barrier,
// and collection throughput of the Go implementation.

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

func benchMutator(gcCfg core.Config) (*core.Mutator, *core.Replicating) {
	h := heap.New(heap.Config{
		NurseryBytes:    1 << 20,
		NurseryCapBytes: 16 << 20,
		OldSemiBytes:    64 << 20,
	})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, gcCfg)
	m.AttachGC(gc)
	return m, gc
}

func rtCfg() core.Config {
	return core.Config{
		NurseryBytes:        1 << 20,
		MajorThresholdBytes: 4 << 20,
		CopyLimitBytes:      100 << 10,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	}
}

// BenchmarkAllocSmallRecords measures raw allocation throughput (including
// collections) for the paper's dominant object shape: three-word records.
func BenchmarkAllocSmallRecords(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.MustAlloc(heap.KindRecord, 2)
		m.Init(p, 0, heap.FromInt(int64(i)))
		m.Init(p, 1, heap.Nil)
	}
	b.SetBytes(3 * heap.BytesPerWord)
}

// BenchmarkWriteBarrier measures the logged store path.
func BenchmarkWriteBarrier(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	arr := m.MustAlloc(heap.KindArray, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(arr, i%64, heap.FromInt(int64(i)))
		if i%4096 == 0 {
			m.Log.TrimTo(m.Log.Len()) // keep the log bounded
		}
	}
}

// oldArray allocates a 64-slot array directly in the old generation so the
// barrier benchmarks below exercise the logged (non-nursery) path.
func oldArray(b *testing.B, m *core.Mutator) heap.Value {
	b.Helper()
	p, ok := m.H.AllocIn(m.H.OldFrom(), heap.KindArray, 64)
	if !ok {
		b.Fatal("old-space alloc failed")
	}
	return p
}

// BenchmarkBarrierNurseryFastPath measures the cheapest barrier outcome: a
// store into an unreplicated nursery object, which appends nothing. The
// fast path must be allocation-free (asserted, not just reported).
func BenchmarkBarrierNurseryFastPath(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	arr := m.MustAlloc(heap.KindArray, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(arr, i%64, heap.FromInt(int64(i)))
	}
	b.StopTimer()
	if m.LogWrites != 0 {
		b.Fatalf("nursery fast path appended %d log entries", m.LogWrites)
	}
	if n := testing.AllocsPerRun(1000, func() {
		m.Set(arr, 0, heap.FromInt(1))
	}); n != 0 {
		b.Fatalf("fast path allocates %.1f times per store, want 0", n)
	}
}

// BenchmarkBarrierDirtyHit measures a logged store whose slot is already
// stamped in the current epoch: the append is suppressed by one load and
// one compare. Also asserted allocation-free.
func BenchmarkBarrierDirtyHit(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	arr := oldArray(b, m)
	m.Set(arr, 0, heap.FromInt(0)) // prime the stamp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(arr, 0, heap.FromInt(int64(i)))
	}
	b.StopTimer()
	if m.LogWrites != 1 {
		b.Fatalf("dirty-hit loop appended %d log entries, want 1", m.LogWrites)
	}
	if n := testing.AllocsPerRun(1000, func() {
		m.Set(arr, 0, heap.FromInt(1))
	}); n != 0 {
		b.Fatalf("dirty hit allocates %.1f times per store, want 0", n)
	}
}

// BenchmarkBarrierDirtyMiss measures the slow path under coalescing: every
// iteration starts a fresh epoch, so each store stamps its slot and appends
// an entry (stamp write + append + cost charge).
func BenchmarkBarrierDirtyMiss(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	arr := oldArray(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.H.BeginLogEpoch()
		m.Set(arr, i%64, heap.FromInt(int64(i)))
		if i%4096 == 0 {
			m.Log.TrimTo(m.Log.Len()) // keep the log bounded
		}
	}
}

// BenchmarkBarrierNaive measures the pre-coalescing barrier (always append)
// on the same old-space store pattern as BenchmarkBarrierDirtyHit, so the
// hit/naive pair is the barrier ns/op before/after comparison.
func BenchmarkBarrierNaive(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	m.NaiveBarrier = true
	arr := oldArray(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(arr, 0, heap.FromInt(int64(i)))
		if i%4096 == 0 {
			m.Log.TrimTo(m.Log.Len()) // keep the log bounded
		}
	}
}

// BenchmarkSetByteRange measures the compiler's code-buffer flush: a
// 72-byte (eight encoded instructions) range store into a nursery byte
// buffer, cycling through the buffer's flush offsets. Asserted
// allocation-free.
func BenchmarkSetByteRange(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	const flush, flushes = 72, 16
	buf := m.MustAllocBytes(flush * flushes)
	data := make([]byte, flush)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.SetBytes(flush)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetByteRange(buf, (i%flushes)*flush, data)
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(1000, func() {
		m.SetByteRange(buf, 0, data)
	}); n != 0 {
		b.Fatalf("SetByteRange allocates %.1f times per store, want 0", n)
	}
}

// benchReplay drives a mutation-heavy loop — a long-lived nursery ref
// mutated between incremental pauses — and reports log entries re-applied
// per operation. With the naive barrier every store between two pauses of
// an active cycle is re-applied to the replica; coalesced, each slot is
// re-applied once per pause.
func benchReplay(b *testing.B, naive bool) {
	m, gc := benchMutator(rtCfg())
	m.NaiveBarrier = naive
	refs := make([]heap.Value, 16)
	for i := range refs {
		r := m.MustAlloc(heap.KindRef, 1)
		m.Init(r, 0, heap.FromInt(0))
		refs[i] = r
	}
	// Enough surviving bulk that a minor cycle spans several budgeted
	// pauses — the refs get replicated mid-cycle while the loop keeps
	// mutating them, which is what forces log reapplication.
	keep := make([]heap.Value, 1024)
	m.Roots.Register(rootFunc(func(v core.RootVisitor) {
		for i := range refs {
			v(&refs[i])
		}
		for i := range keep {
			v(&keep[i])
		}
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(refs[i%16], 0, heap.FromInt(int64(i)))
		if i%4 == 0 {
			p := m.MustAlloc(heap.KindRecord, 30)
			if i%16 == 0 {
				keep[(i/16)%1024] = p
			}
		}
		if i%1024 == 1023 {
			// Refresh one ref so nursery-resident mutated refs exist in
			// every cycle, not just the first.
			r := m.MustAlloc(heap.KindRef, 1)
			m.Init(r, 0, heap.FromInt(int64(i)))
			refs[i%16] = r
		}
	}
	b.StopTimer()
	gc.FinishCycles(m)
	b.ReportMetric(float64(gc.Stats().LogReapplied)/float64(b.N), "reapplied/op")
	b.ReportMetric(float64(m.LogWrites)/float64(b.N), "logged/op")
}

// BenchmarkLogReplayNaive is the baseline replay cost: every store appends,
// every pending entry re-applies.
func BenchmarkLogReplayNaive(b *testing.B) { benchReplay(b, true) }

// BenchmarkLogReplayCoalesced is the same workload through the coalescing
// barrier: one entry (and one reapply) per dirty slot per cycle.
func BenchmarkLogReplayCoalesced(b *testing.B) { benchReplay(b, false) }

// BenchmarkGetHeader measures the forwarding-aware header read the paper
// found unmeasurably cheap.
func BenchmarkGetHeader(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	p := m.MustAlloc(heap.KindRecord, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Header(p).Kind() != heap.KindRecord {
			b.Fatal("wrong kind")
		}
	}
}

// BenchmarkMinorCollection measures full minor collections of a nursery
// with about 25% survival.
func BenchmarkMinorCollection(b *testing.B) {
	m, gc := benchMutator(core.Config{
		NurseryBytes: 1 << 20,
		// Stop-the-world configuration: one pause per collection. Majors
		// recycle the old generation so arbitrarily large b.N fits.
		MajorThresholdBytes: 16 << 20,
	})
	// Retained root table giving ~25% survival.
	keep := make([]heap.Value, 1024)
	m.Roots.Register(rootFunc(func(v core.RootVisitor) {
		for i := range keep {
			v(&keep[i])
		}
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.MustAlloc(heap.KindRecord, 30)
		if i%4 == 0 {
			keep[(i/4)%1024] = p
		}
	}
	b.StopTimer()
	gc.FinishCycles(m)
	b.ReportMetric(float64(gc.Stats().MinorCollections)/float64(b.N)*1e6, "collections/Mop")
}

// BenchmarkEqStructural measures polymorphic equality over small records.
func BenchmarkEqStructural(b *testing.B) {
	m, _ := benchMutator(rtCfg())
	mk := func() heap.Value {
		p := m.MustAlloc(heap.KindRecord, 2)
		m.Init(p, 0, heap.FromInt(7))
		m.Init(p, 1, m.MustAllocString([]byte("hello")))
		return p
	}
	h1 := m.PushHandle(mk())
	h2 := m.PushHandle(mk())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Eq(m.HandleVal(h1), m.HandleVal(h2)) {
			b.Fatal("not equal")
		}
	}
}
