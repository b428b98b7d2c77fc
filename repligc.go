// Package repligc is a from-scratch reproduction of "Real-Time Replication
// Garbage Collection" (Nettles & O'Toole, PLDI 1993): the first copying
// garbage collector that lets the mutator keep using the original objects
// while the collector incrementally builds replicas, kept consistent
// through a mutation log and handed over by an atomic flip.
//
// The package bundles everything the paper's system needed: a simulated
// two-generation heap with SML/NJ's object model (headers merged with
// forwarding pointers), the replication collector in all of the paper's
// configurations (real-time, minor-incremental, major-incremental), a
// classical stop-and-copy baseline, a MiniML compiler and VM whose data
// lives entirely on the simulated heap (the benchmark substrate), a
// deterministic simulated clock calibrated to the paper's hardware, and the
// benchmark/experiment harness that regenerates every table and figure of
// the paper's evaluation.
//
// # Quick start
//
//	rt, err := repligc.NewRealTime(repligc.RealTimeOptions{})
//	out, err := rt.CompileAndRun(`print "hello from MiniML\n"`)
//	fmt.Println(out, rt.GC.Pauses().Max())
//
// Lower-level access (allocation, write barrier, handles) is available via
// rt.Mutator; see the examples/ directory for allocation-level, interactive
// and benchmark-style programs.
package repligc

import (
	"fmt"

	"repligc/internal/bench"
	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
	"repligc/internal/vm"
)

// Re-exported core types. The facade exposes the internal packages' types
// as aliases so downstream code can use the full API surface through this
// single import.
type (
	// Heap is the simulated two-generation heap.
	Heap = heap.Heap
	// HeapConfig sizes a heap.
	HeapConfig = heap.Config
	// Value is a tagged heap word (immediate integer or pointer).
	Value = heap.Value
	// Kind classifies heap objects.
	Kind = heap.Kind
	// Header is an object descriptor.
	Header = heap.Header

	// Mutator is the allocation / write-barrier / getheader interface.
	Mutator = core.Mutator
	// Handle pins a heap value for Go code across collections.
	Handle = core.Handle
	// Collector is the mutator-facing collector contract.
	Collector = core.Collector
	// GCStats are the collector's work counters.
	GCStats = core.GCStats
	// ReplicatingConfig parameterises the replication collector
	// (N, O, L, A and the incremental switches).
	ReplicatingConfig = core.Config
	// Replicating is the paper's replication collector.
	Replicating = core.Replicating
	// LogPolicy selects which mutations the write barrier records.
	LogPolicy = core.LogPolicy

	// StopCopy is the stop-and-copy baseline collector.
	StopCopy = stopcopy.Collector
	// StopCopyConfig parameterises the baseline.
	StopCopyConfig = stopcopy.Config

	// Clock is the deterministic simulated clock.
	Clock = simtime.Clock
	// CostModel fixes the simulated cost of each unit of work.
	CostModel = simtime.CostModel
	// Duration is simulated time in nanoseconds.
	Duration = simtime.Duration

	// Script records/replays collection policy decisions (paper §4.2).
	Script = policy.Script

	// Program is compiled MiniML bytecode.
	Program = bytecode.Program
	// VM executes MiniML bytecode on the simulated heap.
	VM = vm.VM

	// BenchSuite runs the paper's evaluation experiments.
	BenchSuite = bench.Suite
	// BenchScale sizes the benchmark workloads.
	BenchScale = bench.Scale

	// OOMError is the typed heap-exhaustion failure every collector
	// surfaces when the degradation ladder (forced completion, emergency
	// major collection) cannot free enough space. Extract it from a
	// wrapped error chain with AsOOM.
	OOMError = core.OOMError
)

// IsOOM reports whether err's chain contains a heap-exhaustion failure.
func IsOOM(err error) bool { return core.IsOOM(err) }

// AsOOM extracts the typed *OOMError from err's chain.
func AsOOM(err error) (*OOMError, bool) { return core.AsOOM(err) }

// Object kinds.
const (
	KindRecord  = heap.KindRecord
	KindClosure = heap.KindClosure
	KindString  = heap.KindString
	KindRef     = heap.KindRef
	KindArray   = heap.KindArray
	KindBytes   = heap.KindBytes
)

// Logging policies.
const (
	LogPointersOnly = core.LogPointersOnly
	LogAllMutations = core.LogAllMutations
)

// Default1993 is the cost model calibrated to the paper's hardware.
func Default1993() CostModel { return simtime.Default1993() }

// Prelude is MiniML's standard library source (lists, strings, arrays,
// futures); prepend it to programs that want it.
const Prelude = lang.Prelude

// NewBenchSuite builds the experiment suite; see cmd/rtgc-bench.
func NewBenchSuite(s BenchScale) *BenchSuite { return bench.NewSuite(s) }

// DefaultBenchScale is the full-evaluation workload scale.
func DefaultBenchScale() BenchScale { return bench.DefaultScale() }

// RealTimeOptions configures NewRealTime. Zero values take the paper's
// defaults: N = 0.2 MB, O = 1 MB, L = 100 KB (the 50 ms pause target).
type RealTimeOptions struct {
	NurseryBytes        int64
	MajorThresholdBytes int64
	CopyLimitBytes      int64
	// Minor/MajorIncremental default to true (the real-time collector);
	// set DisableIncrementalMinor / DisableIncrementalMajor to obtain the
	// paper's partial configurations.
	DisableIncrementalMinor bool
	DisableIncrementalMajor bool
	// InterleavedTaxPermille enables the concurrent-style pacing of the
	// paper's §6: collector work rides on allocation as a copying tax
	// (bytes of work per 1000 bytes allocated) and pause-sized stops all
	// but disappear. 1500 is a reasonable value; zero disables.
	InterleavedTaxPermille int
	// Record, when non-nil, accumulates the run's policy script (§4.2);
	// Replay drives collections from one (see NewStopCopyReplay).
	Record *Script
	// HeapConfig overrides the heap sizing; any zero field keeps its
	// default (nursery sized from NurseryBytes, 96 MB old semispaces).
	HeapConfig HeapConfig
}

// Runtime bundles one heap + mutator + collector, ready to allocate,
// compile and run MiniML.
type Runtime struct {
	Heap    *Heap
	Mutator *Mutator
	GC      Collector
	Clock   *Clock
}

// ConfigError reports constructor options that cannot build a runtime: a
// negative size, or a heap whose arena (nursery cap plus both old
// semispaces) exceeds heap.MaxArenaBytes.
type ConfigError struct {
	Field  string // the offending option ("CopyLimitBytes", "HeapConfig.OldSemiBytes", ...) or "nursery cap"
	Value  int64
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("repligc: %s = %d: %s", e.Field, e.Value, e.Reason)
}

// sizeOption is one named option value for checkNonNegative.
type sizeOption struct {
	name string
	v    int64
}

// checkNonNegative returns a *ConfigError for the first negative option.
func checkNonNegative(opts ...sizeOption) error {
	for _, o := range opts {
		if o.v < 0 {
			return &ConfigError{Field: o.name, Value: o.v, Reason: "must not be negative"}
		}
	}
	return nil
}

// newHeap builds the facade's heap from hc, whose zero fields take the
// defaults: a nursery of nurseryBytes, a nursery cap of 64 nurseries and
// 96 MB old semispaces. Sizes heap.New would panic on come back as a
// *ConfigError.
func newHeap(hc HeapConfig, nurseryBytes int64) (*Heap, error) {
	if err := checkNonNegative(
		sizeOption{"HeapConfig.NurseryBytes", hc.NurseryBytes},
		sizeOption{"HeapConfig.NurseryCapBytes", hc.NurseryCapBytes},
		sizeOption{"HeapConfig.OldSemiBytes", hc.OldSemiBytes},
	); err != nil {
		return nil, err
	}
	if hc.NurseryBytes == 0 {
		hc.NurseryBytes = nurseryBytes
	}
	if hc.OldSemiBytes == 0 {
		hc.OldSemiBytes = 96 << 20
	}
	if hc.NurseryCapBytes == 0 && hc.NurseryBytes <= heap.MaxArenaBytes {
		hc.NurseryCapBytes = 64 * hc.NurseryBytes
	}
	const tooLarge = "heap arena larger than heap.MaxArenaBytes"
	nurseryCap := max(hc.NurseryCapBytes, hc.NurseryBytes) // heap.New's floor
	if nurseryCap > heap.MaxArenaBytes {
		return nil, &ConfigError{Field: "nursery cap", Value: nurseryCap, Reason: tooLarge}
	}
	if !heap.ArenaFits(nurseryCap, hc.OldSemiBytes) {
		return nil, &ConfigError{Field: "HeapConfig.OldSemiBytes", Value: hc.OldSemiBytes, Reason: tooLarge}
	}
	return heap.New(hc), nil
}

// NewRealTime builds a runtime with the replication collector. Options it
// cannot honour are reported as a *ConfigError.
func NewRealTime(o RealTimeOptions) (*Runtime, error) {
	if err := checkNonNegative(
		sizeOption{"NurseryBytes", o.NurseryBytes},
		sizeOption{"MajorThresholdBytes", o.MajorThresholdBytes},
		sizeOption{"CopyLimitBytes", o.CopyLimitBytes},
		sizeOption{"InterleavedTaxPermille", int64(o.InterleavedTaxPermille)},
	); err != nil {
		return nil, err
	}
	if o.NurseryBytes == 0 {
		o.NurseryBytes = 200 << 10
	}
	if o.MajorThresholdBytes == 0 {
		o.MajorThresholdBytes = 1 << 20
	}
	if o.CopyLimitBytes == 0 {
		o.CopyLimitBytes = 100 << 10
	}
	h, err := newHeap(o.HeapConfig, o.NurseryBytes)
	if err != nil {
		return nil, err
	}
	clock := simtime.NewClock()
	m := core.NewMutator(h, clock, simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, core.Config{
		NurseryBytes:           o.NurseryBytes,
		MajorThresholdBytes:    o.MajorThresholdBytes,
		CopyLimitBytes:         o.CopyLimitBytes,
		IncrementalMinor:       !o.DisableIncrementalMinor,
		IncrementalMajor:       !o.DisableIncrementalMajor,
		InterleavedTaxPermille: o.InterleavedTaxPermille,
		BoundedLogProcessing:   o.InterleavedTaxPermille > 0,
		Record:                 o.Record,
	})
	m.AttachGC(gc)
	return &Runtime{Heap: h, Mutator: m, GC: gc, Clock: clock}, nil
}

// NewStopCopyReplay builds a stop-and-copy runtime whose collections are
// driven by a policy script recorded from a real-time run — the paper's
// §4.2 methodology for measuring mechanism costs with identical policy.
func NewStopCopyReplay(nurseryBytes int64, script *Script) (*Runtime, error) {
	if err := checkNonNegative(sizeOption{"nurseryBytes", nurseryBytes}); err != nil {
		return nil, err
	}
	if nurseryBytes == 0 {
		nurseryBytes = 200 << 10
	}
	h, err := newHeap(HeapConfig{}, nurseryBytes)
	if err != nil {
		return nil, err
	}
	clock := simtime.NewClock()
	m := core.NewMutator(h, clock, simtime.Default1993(), core.LogAllMutations)
	gc := stopcopy.New(h, stopcopy.Config{NurseryBytes: nurseryBytes, Replay: script})
	m.AttachGC(gc)
	return &Runtime{Heap: h, Mutator: m, GC: gc, Clock: clock}, nil
}

// NewStopCopy builds a runtime with the stop-and-copy baseline.
func NewStopCopy(nurseryBytes, majorThresholdBytes int64) (*Runtime, error) {
	if err := checkNonNegative(
		sizeOption{"nurseryBytes", nurseryBytes},
		sizeOption{"majorThresholdBytes", majorThresholdBytes},
	); err != nil {
		return nil, err
	}
	if nurseryBytes == 0 {
		nurseryBytes = 200 << 10
	}
	if majorThresholdBytes == 0 {
		majorThresholdBytes = 1 << 20
	}
	h, err := newHeap(HeapConfig{}, nurseryBytes)
	if err != nil {
		return nil, err
	}
	clock := simtime.NewClock()
	m := core.NewMutator(h, clock, simtime.Default1993(), core.LogPointersOnly)
	gc := stopcopy.New(h, stopcopy.Config{
		NurseryBytes:        nurseryBytes,
		MajorThresholdBytes: majorThresholdBytes,
	})
	m.AttachGC(gc)
	return &Runtime{Heap: h, Mutator: m, GC: gc, Clock: clock}, nil
}

// Compile compiles MiniML source on this runtime's heap (the compiler's
// working data is itself collected — the paper's Comp workload).
func (r *Runtime) Compile(src string) (*Program, error) {
	return lang.Compile(r.Mutator, src)
}

// CompileAndRun compiles and executes a MiniML program, returning its
// printed output. Collector pauses and statistics accumulate on r.GC.
func (r *Runtime) CompileAndRun(src string) (string, error) {
	prog, err := r.Compile(src)
	if err != nil {
		return "", err
	}
	machine := vm.New(r.Mutator, prog)
	machine.MaxSteps = 2_000_000_000
	err = machine.Run()
	return machine.Output.String(), err
}

// Finish drives any in-progress incremental collection to completion. A
// non-nil error is heap exhaustion (IsOOM reports true on it); the heap
// remains auditable.
func (r *Runtime) Finish() error { return r.GC.FinishCycles(r.Mutator) }

// StatsSummary renders the collector's statistics in one line.
func (r *Runtime) StatsSummary() string {
	st := r.GC.Stats()
	rec := r.GC.Pauses()
	return fmt.Sprintf("%s: elapsed=%v alloc=%.1fMB minors=%d majors=%d pauses=%d p99=%v max=%v",
		r.GC.Name(), r.Clock.Now(), float64(r.Mutator.BytesAllocated)/(1<<20),
		st.MinorCollections, st.MajorCollections, st.PauseCount,
		rec.Percentile(99), rec.Max())
}
