package main

// The four workloads. Each pass builds its runtimes and inputs (set-up),
// runs (timed), distils the simulated metrics, and only then runs the
// output checks, which are never timed.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repligc/internal/bench"
	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/simtime"
	"repligc/internal/trace"
	"repligc/internal/workload"
)

const (
	// group4Rounds gives the four-member group about 245 all-stopped
	// pauses, enough for a p95 with ten pauses beyond it.
	group4Rounds  = 5000
	group4Members = 4
	group4Quantum = 80 // driver operations per member per round, as the perf report uses

	// Serving: serveTraces independent traces of serveHorizonMs each are
	// served at every ladder rung and pooled. One 26 s trace at the
	// committed rate holds about 10.4k interactive requests and 115 pauses,
	// and its tails and 1 s MMU move by tens of percent between seeds;
	// pooling sixteen makes every simulated metric steady to a few percent
	// without a longer horizon, over which the generator's live data drifts
	// upward.
	serveTraces    = 16
	serveHorizonMs = 26000
	latencyLimitMs = 100 // the batch cohort's deadline: twice the paper's 50 ms pause target

	traceCapacity = 1 << 17 // events; a traced sort run records about 37k
)

// ladder is the serving ladder: multiples of the committed interactive
// rate, with the batch cohort scaled alongside.
var ladder = []float64{1, 1.25, 1.5, 1.75, 2, 2.5}

// ladderNames label the rungs above ×1 in per-layer metric names.
var ladderNames = []string{"x1_25", "x1_5", "x1_75", "x2", "x2_5"}

// pass is what one pass over a workload measured and checked. Simulated
// metrics, counters and the digest must come out identical on every pass
// of a run, traced or not.
type pass struct {
	samples []*sample
	sim     map[string]float64 // end-to-end simulated metrics
	layers  map[string]float64 // deterministic per-layer counters
	traced  map[string]float64 // counters read from trace recorders (traced passes only)
	digest  uint64             // every simulated outcome, hashed

	attempted, failed int
	problems          []string // failed output checks
	notes             []string // sample counts behind the simulated percentiles
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// warm builds one runtime and drops it, so that measured set-up runs
	// in a process that has already built one, as every caller that builds
	// more than one runtime does.
	warm func() error
	// run makes one pass. first is set on a run's first pass only: checks
	// against a second, reference execution run there, and later passes
	// inherit them by reproducing the first pass's digest.
	run func(seed uint64, traced, first bool) (*pass, error)
}

var workloads = []workloadDef{
	{name: "sort", warm: warmPaper, run: func(_ uint64, traced, _ bool) (*pass, error) {
		s := bench.DefaultScale()
		return runPaper(bench.Sort(s), traced, sortCheck(s.SortSize))
	}},
	{name: "comp", warm: warmPaper, run: func(_ uint64, traced, _ bool) (*pass, error) {
		return runPaper(bench.Comp(bench.DefaultScale()), traced, exactly(compExpected))
	}},
	{name: "serve", warm: warmServe, run: runServe},
	{name: "group4", warm: warmPaper, run: runGroup4},
}

// compExpected is what Comp prints at default scale: the block and
// instruction totals of compiling its corpus forty times.
const compExpected = "compiled blocks=34040 instrs=735800\n"

func paperConfig() bench.RunConfig {
	return bench.RunConfig{Config: bench.CfgRT, Params: bench.PaperParams()[0]}
}

func warmPaper() error {
	_, err := bench.NewRuntime(paperConfig())
	return err
}

func warmServe() error {
	_, err := workload.NewRuntime(serveSpec(0, 0, 1), workload.RuntimeOptions{})
	return err
}

// timed installs the timing wrapper over a replicating collector.
func timed(gc core.Collector, sp *spans) (*timedCollector, error) {
	rep, ok := gc.(*core.Replicating)
	if !ok {
		return nil, fmt.Errorf("collector %T is not the replicating collector", gc)
	}
	return &timedCollector{Replicating: rep, sp: sp}, nil
}

// runPaper runs one of the paper's fixed programs once under rt and checks
// what it printed.
func runPaper(w bench.Workload, traced bool, check func(out string) error) (*pass, error) {
	mt, err := newMeter(traced)
	if err != nil {
		return nil, err
	}
	rc := paperConfig()
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(traceCapacity)
		rc.Trace = rec
	}
	var rt *bench.Runtime
	if err := mt.setup(layerHeapNew, func() (err error) {
		rt, err = bench.NewRuntime(rc)
		return err
	}); err != nil {
		return nil, err
	}
	m, gc := rt.Mutator, rt.GC
	if traced {
		tc, err := timed(gc, mt.s.sp)
		if err != nil {
			return nil, err
		}
		m.AttachGC(tc)
		gc = tc
	}

	mt.startRun(m.Clock)
	out, err := w.Run(m)
	if err == nil {
		err = gc.FinishCycles(m)
	}
	mt.stopRun(m.Clock)
	smp, ferr := mt.finish()
	if ferr != nil {
		return nil, ferr
	}
	p := &pass{samples: []*sample{smp}, attempted: 1}
	if err != nil {
		p.failed = 1
		p.problem("%s: %v", w.Name(), err)
		return p, nil
	}

	pauses := gc.Pauses().Pauses
	if p.sim, err = pauseMetrics(pauses, m.Clock.Now()); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name(), err)
	}
	p.notes = []string{fmt.Sprintf("pause percentiles over %d pauses", len(pauses))}
	st := gc.Stats()
	p.layers = map[string]float64{}
	addCollectorStats(p.layers, st)
	addMutatorStats(p.layers, m)
	p.digest = digest(out, pauses, m.Clock.Breakdown(), st)
	if rec != nil {
		p.traced = map[string]float64{}
		if err := addRecorder(p.traced, rec); err != nil {
			return nil, err
		}
	}

	if err := check(out); err != nil {
		p.problem("%s: %v", w.Name(), err)
	}
	if err := core.AuditHeap(m); err != nil {
		p.problem("%s: %v", w.Name(), err)
	}
	return p, nil
}

// runGroup4 runs the seeded four-member group workload once.
func runGroup4(seed uint64, traced, _ bool) (*pass, error) {
	mt, err := newMeter(traced)
	if err != nil {
		return nil, err
	}
	var gr *bench.GroupRuntime
	if err := mt.setup(layerHeapNew, func() (err error) {
		gr, err = bench.NewGroupRuntime(paperConfig(), group4Members)
		return err
	}); err != nil {
		return nil, err
	}
	g := gr.Group
	var md *gctest.MultiDriver
	if err := mt.setup(layerSetup, func() (err error) {
		md, err = gctest.NewMultiDriver(g, int64(seed))
		return err
	}); err != nil {
		return nil, err
	}
	gc := gr.GC
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(traceCapacity)
		bench.AttachTrace(&bench.Runtime{Heap: gr.Heap, Mutator: g.Members[0], GC: gc}, rec)
		for _, m := range g.Members[1:] {
			m.Trace = rec
		}
		tc, err := timed(gc, mt.s.sp)
		if err != nil {
			return nil, err
		}
		g.AttachGC(tc)
		gc = tc
		sp, merge := mt.s.sp, gr.Heap.PreEpochHook
		gr.Heap.PreEpochHook = func() {
			sp.begin(layerMerge, g.Clock.Now())
			merge()
			sp.end(g.Clock.Now())
		}
	}

	mt.startRun(g.Clock)
	for r := 0; r < group4Rounds && err == nil; r++ {
		err = md.Step(group4Quantum)
	}
	if err == nil {
		err = g.Run(0, func(m *core.Mutator) error { return gc.FinishCycles(m) })
	}
	mt.stopRun(g.Clock)
	smp, ferr := mt.finish()
	if ferr != nil {
		return nil, ferr
	}
	p := &pass{samples: []*sample{smp}, attempted: 1}
	if err != nil {
		p.failed = 1
		p.problem("group4: %v", err)
		return p, nil
	}

	gp := g.GroupPauses()
	if p.sim, err = pauseMetrics(gp.Pauses, g.Elapsed()); err != nil {
		return nil, fmt.Errorf("group4: %w", err)
	}
	p.notes = []string{fmt.Sprintf("pause percentiles over %d all-stopped group pauses", len(gp.Pauses))}
	st := gc.Stats()
	p.layers = map[string]float64{
		"core.group.merged_entries":    float64(g.MergedEntries),
		"core.group.merge_dropped":     float64(g.MergeDropped),
		"core.group.overlap_ratio":     g.OverlapRatio(),
		"core.group.sync_pause_max_ms": simtime.Percentile(gp.Durations(), 100).Milliseconds(),
	}
	addCollectorStats(p.layers, st)
	for _, m := range g.Members {
		addMutatorStats(p.layers, m)
	}
	p.digest = digest(md.Fingerprint(), gp.Pauses, gc.Pauses().Pauses, g.Clock.Breakdown(), st)
	if rec != nil {
		p.traced = map[string]float64{}
		if err := addRecorder(p.traced, rec); err != nil {
			return nil, err
		}
	}

	if err := md.Verify(); err != nil {
		p.problem("group4: %v", err)
	}
	if err := core.AuditHeap(g.Members[0]); err != nil {
		p.problem("group4: %v", err)
	}
	return p, nil
}

// pauseMetrics distils the end-to-end simulated metrics of one pause
// record over a run of the given simulated length.
func pauseMetrics(pauses []simtime.Pause, elapsed simtime.Duration) (map[string]float64, error) {
	ds := durations(pauses)
	p95, err := tail(ds, 95)
	if err != nil {
		return nil, fmt.Errorf("pause %w", err)
	}
	q := simtime.Percentiles(ds, 50, 100)
	return map[string]float64{
		"sim_elapsed_ms": elapsed.Milliseconds(),
		"pause_p50_ms":   q[0].Milliseconds(),
		"pause_p95_ms":   p95.Milliseconds(),
		"pause_max_ms":   q[1].Milliseconds(),
		"mmu_1s":         simtime.MMUFromPauses(pauses, elapsed, simtime.Second),
	}, nil
}

func durations(pauses []simtime.Pause) []simtime.Duration {
	ds := make([]simtime.Duration, len(pauses))
	for i, p := range pauses {
		ds[i] = p.Length
	}
	return ds
}

// addCollectorStats adds a collector's counters to ls.
func addCollectorStats(ls map[string]float64, st *core.GCStats) {
	ls["core.collector.minor"] += float64(st.MinorCollections)
	ls["core.collector.major"] += float64(st.MajorCollections)
	ls["core.collector.pauses"] += float64(st.PauseCount)
	ls["core.collector.copied_mb"] += mb(st.TotalBytesCopied())
	ls["core.collector.forced"] += float64(st.ForcedCompletion)
	ls["core.collector.emergencies"] += float64(st.EmergencyCollections)
	ls["core.collector.log_scanned"] += float64(st.LogScanned)
	ls["core.collector.log_reapplied"] += float64(st.LogReapplied)
	ls["core.collector.root_slots"] += float64(st.RootSlotUpdates)
	ls["core.collector.flip_updates"] += float64(st.FlipEntryUpdates)
}

// addMutatorStats adds a mutator's allocation and barrier counters to ls.
func addMutatorStats(ls map[string]float64, m *core.Mutator) {
	ls["core.mutator.alloc_mb"] += mb(m.BytesAllocated)
	ls["core.mutator.log_writes"] += float64(m.LogWrites)
	ls["core.mutator.nursery_skips"] += float64(m.BarrierFastSkips)
	ls["core.mutator.dirty_skips"] += float64(m.BarrierDirtySkips)
}

// addRecorder adds a trace recorder's phase split on the simulated clock
// and its event counts to ls.
func addRecorder(ls map[string]float64, rec *trace.Recorder) error {
	an, err := trace.Analyze(rec.Events())
	if err != nil {
		return fmt.Errorf("analyzing trace: %w", err)
	}
	ls["core.collector.sim_root_scan_ms"] += an.PhaseTime[trace.PhaseRootScan].Milliseconds()
	ls["core.collector.sim_log_replay_ms"] += an.PhaseTime[trace.PhaseLogReplay].Milliseconds()
	ls["core.collector.sim_copy_ms"] += an.PhaseTime[trace.PhaseCopy].Milliseconds()
	ls["core.collector.sim_flip_ms"] += an.PhaseTime[trace.PhaseFlip].Milliseconds()
	ls["trace.events"] += float64(rec.Len())
	ls["trace.dropped"] += float64(rec.Dropped())
	return nil
}

// digest hashes the JSON encoding of every simulated outcome passed in.
func digest(parts ...any) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			// Every part is a plain value of numbers, strings and slices.
			panic(err)
		}
	}
	return h.Sum64()
}
