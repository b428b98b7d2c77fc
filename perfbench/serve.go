package main

// The serve workload: the committed serving mix, open loop, at each rung of
// the offered-load ladder, served by the coalesced rt collector and checked
// against the plain stop-and-copy collector serving the same trace.

import (
	"fmt"

	"repligc/internal/bench"
	"repligc/internal/core"
	"repligc/internal/simtime"
	"repligc/internal/workload"
)

// serveSpec is the committed serving mix for trace j of a run's seed, over
// the benchmark's horizon, with every cohort's rate scaled by factor.
func serveSpec(seed uint64, j int, factor float64) *workload.Spec {
	spec := bench.DefaultServeSpec(bench.DefaultScale())
	spec.Seed = seed*serveTraces + uint64(j)
	spec.DurationMs = serveHorizonMs
	for i := range spec.Cohorts {
		spec.Cohorts[i].Arrival.RatePerSec *= factor
	}
	return spec
}

// requestLog reconstructs each request's service start and completion on
// the simulated clock from outside the engine. Serve calls Inject right
// after a request starts, and the only simulated time that passes between
// one request's completion and the next one's start is the idle wait for
// its arrival.
type requestLog struct {
	clock        *simtime.Clock
	starts, ends []simtime.Duration
	n            int
	idle         simtime.Duration
}

func (l *requestLog) inject() error {
	now, idle := l.clock.Now(), l.clock.AccountTotal(simtime.AcctIdle)
	if l.n > 0 {
		l.ends[l.n-1] = now - (idle - l.idle)
	}
	l.starts[l.n] = now
	l.idle = idle
	l.n++
	return nil
}

// served is one trace served at one rung, reduced to what the pass pools.
type served struct {
	lats, waits []simtime.Duration // interactive requests that completed
	interactive int
	missed      int // interactive requests over the deadline or not served
	requests    int
	failed      int // requests of any cohort not served
	drainMs     float64
	intrMs      float64 // interactive GC intrusion, as the engine reports it
	pauses      []simtime.Pause
	elapsed     simtime.Duration
	fingerprint string
	counters    map[string]float64
	recorded    map[string]float64
	digest      uint64
	problems    []string
}

// serveOnce generates, builds and serves one trace at one rung, adding its
// set-up and run to mt. Serve errors are reported as failed requests.
func serveOnce(mt *meter, seed uint64, j int, factor float64) (*served, error) {
	spec := serveSpec(seed, j, factor)
	var tr *workload.Trace
	if err := mt.setup(layerGenerate, func() (err error) {
		tr, err = workload.Generate(spec)
		return err
	}); err != nil {
		return nil, err
	}
	var rt *workload.Runtime
	if err := mt.setup(layerHeapNew, func() (err error) {
		rt, err = workload.NewRuntime(spec, workload.RuntimeOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	// The wrapper is installed traced or not: it is how the run clock stops
	// when FinishCycles returns, before Serve digests its report.
	tc, err := timed(rt.GC, mt.s.sp)
	if err != nil {
		return nil, err
	}
	m := rt.Mutator
	rt.GC = tc
	m.AttachGC(tc)
	tc.finished = func() { mt.stopRun(m.Clock) }
	n := len(tr.Reqs)
	rl := &requestLog{clock: m.Clock, starts: make([]simtime.Duration, n), ends: make([]simtime.Duration, n)}

	mt.startRun(m.Clock)
	leg, serr := workload.Serve(rt, tr, "coalesced", workload.ServeOptions{Inject: rl.inject})
	mt.stopRun(m.Clock)

	s := &served{requests: n, pauses: tc.Pauses().Pauses, elapsed: m.Clock.Now(), counters: map[string]float64{}}
	completed := n
	if serr != nil {
		// The request in flight failed (the last one, if FinishCycles did).
		completed = max(rl.n-1, 0)
		s.problems = append(s.problems, fmt.Sprintf("serve x%v trace %d: %v", factor, j, serr))
	} else {
		// The last request completes where the serving loop hands over to
		// FinishCycles.
		rl.ends[n-1] = tc.finishAt
		s.drainMs = (tc.finishAt - tr.Reqs[n-1].At).Milliseconds()
		s.fingerprint = leg.HeapFingerprint
	}
	s.failed = n - completed
	deadline := simtime.Duration(spec.Cohorts[0].SLO.DeadlineMs * float64(simtime.Millisecond))
	for i := range tr.Reqs {
		r := &tr.Reqs[i]
		if r.Cohort != 0 {
			continue
		}
		s.interactive++
		if i >= completed {
			s.missed++
			continue
		}
		lat := rl.ends[i] - r.At
		s.lats = append(s.lats, lat)
		s.waits = append(s.waits, rl.starts[i]-r.At)
		if lat > deadline {
			s.missed++
		}
	}

	addCollectorStats(s.counters, tc.Stats())
	addMutatorStats(s.counters, m)
	if mt.s.sp != nil {
		s.recorded = map[string]float64{}
		if err := addRecorder(s.recorded, rt.Recorder); err != nil {
			return nil, err
		}
	}
	if leg != nil {
		c := leg.Cohorts[0]
		s.intrMs = c.Intrusion.TotalMs
		s.digest = digest(leg, tc.Stats(), m.Clock.Breakdown())
		// The reconstruction must agree with the engine's own report.
		mine := simtime.Percentiles(s.lats, 50, 99.9)
		if mine[0].Milliseconds() != c.Latency.P50 || mine[1].Milliseconds() != c.Latency.P999 || s.missed != c.SLO.Missed {
			s.problems = append(s.problems, fmt.Sprintf(
				"serve x%v trace %d: reconstructed p50 %v p99.9 %v missed %d, engine reports %v %v %d",
				factor, j, mine[0].Milliseconds(), mine[1].Milliseconds(), s.missed, c.Latency.P50, c.Latency.P999, c.SLO.Missed))
		}
	}
	if err := core.AuditHeap(m); err != nil {
		s.problems = append(s.problems, fmt.Sprintf("serve x%v trace %d: %v", factor, j, err))
	}
	return s, nil
}

// checkAgainstSC serves trace j at rung factor with the plain stop-and-copy
// collector and compares the final heap fingerprint with want.
func checkAgainstSC(seed uint64, j int, factor float64, want string) error {
	spec := serveSpec(seed, j, factor)
	tr, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	rt, err := workload.NewRuntime(spec, workload.RuntimeOptions{Collector: workload.CollectorSC})
	if err != nil {
		return err
	}
	leg, err := workload.Serve(rt, tr, "sc", workload.ServeOptions{})
	if err != nil {
		return fmt.Errorf("sc reference: %w", err)
	}
	if leg.HeapFingerprint != want {
		return fmt.Errorf("heap fingerprint %s, sc serving the same trace gives %s", want, leg.HeapFingerprint)
	}
	return nil
}

// runServe serves serveTraces traces at every ladder rung. Each trace's
// ladder is one host sample; the simulated metrics pool all traces. The
// first pass also serves every trace with the stop-and-copy collector.
func runServe(seed uint64, traced, first bool) (*pass, error) {
	type pool struct {
		lats, waits []simtime.Duration
		pauses      []simtime.Duration
		interactive int
		missed      int
		failed      int
		drains      []float64
		latMs       float64
		intrMs      float64
		mmus        []float64
		elapsed     simtime.Duration
	}
	pools := make([]pool, len(ladder))
	p := &pass{layers: map[string]float64{}}
	if traced {
		p.traced = map[string]float64{}
	}
	var digests []uint64
	for j := 0; j < serveTraces; j++ {
		mt, err := newMeter(traced)
		if err != nil {
			return nil, err
		}
		fingerprints := make([]string, len(ladder))
		for ri, f := range ladder {
			s, err := serveOnce(mt, seed, j, f)
			if err != nil {
				return nil, err
			}
			p.attempted += s.requests
			p.failed += s.failed
			p.problems = append(p.problems, s.problems...)
			fingerprints[ri] = s.fingerprint
			digests = append(digests, s.digest)
			for k, v := range s.counters {
				p.layers[k] += v
			}
			for k, v := range s.recorded {
				p.traced[k] += v
			}
			q := &pools[ri]
			q.lats = append(q.lats, s.lats...)
			q.interactive += s.interactive
			q.missed += s.missed
			q.failed += s.failed
			q.drains = append(q.drains, s.drainMs)
			if ri == 0 {
				q.waits = append(q.waits, s.waits...)
				q.pauses = append(q.pauses, durations(s.pauses)...)
				q.elapsed += s.elapsed
				q.intrMs += s.intrMs
				for _, l := range s.lats {
					q.latMs += l.Milliseconds()
				}
				q.mmus = append(q.mmus, simtime.MMUFromPauses(s.pauses, s.elapsed, simtime.Second))
			}
		}
		smp, err := mt.finish()
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, smp)
		for ri, f := range ladder {
			if !first || fingerprints[ri] == "" {
				continue // a later pass, or Serve failed (already counted)
			}
			if err := checkAgainstSC(seed, j, f, fingerprints[ri]); err != nil {
				p.problem("serve x%v trace %d: %v", f, j, err)
			}
		}
	}

	x1 := &pools[0]
	p.sim = map[string]float64{"sim_elapsed_ms": (x1.elapsed / serveTraces).Milliseconds(), "mmu_1s": mean(x1.mmus)}
	q := simtime.Percentiles(x1.pauses, 50, 100)
	p.sim["pause_p50_ms"], p.sim["pause_max_ms"] = q[0].Milliseconds(), q[1].Milliseconds()
	p95, err := tail(x1.pauses, 95)
	if err != nil {
		return nil, fmt.Errorf("serve x1 pause %w", err)
	}
	p.sim["pause_p95_ms"] = p95.Milliseconds()
	p.notes = []string{fmt.Sprintf("x1: pause percentiles over %d pauses of %d traces", len(x1.pauses), serveTraces)}

	rungs := make([]rung, len(ladder))
	baseRPS := serveSpec(seed, 0, 1).Cohorts[0].Arrival.RatePerSec
	for ri, f := range ladder {
		r := &pools[ri]
		p999, err := tail(r.lats, 99.9)
		if err != nil {
			return nil, fmt.Errorf("serve x%v interactive latency %w", f, err)
		}
		rungs[ri] = rung{
			rps:     f * baseRPS,
			p999Ms:  p999.Milliseconds(),
			failed:  r.failed,
			drainMs: median(r.drains),
		}
		if ri > 0 {
			p.layers["workload.req_p999_ms."+ladderNames[ri-1]] = p999.Milliseconds()
		}
		p.notes = append(p.notes, fmt.Sprintf("x%v: interactive p99.9 over %d requests", f, len(r.lats)))
	}
	wait, err := tail(x1.waits, 99)
	if err != nil {
		return nil, fmt.Errorf("serve x1 queue wait %w", err)
	}
	p.layers["workload.requests"] = float64(p.attempted)
	p.layers["workload.req_p50_ms"] = simtime.Percentile(x1.lats, 50).Milliseconds()
	p.layers["workload.req_p999_ms"] = rungs[0].p999Ms
	p.layers["workload.slo_miss_pct"] = 100 * float64(x1.missed) / float64(x1.interactive)
	p.layers["workload.max_rate_rps"] = maxRate(rungs, latencyLimitMs)
	p.layers["workload.queue_wait_p99_ms"] = wait.Milliseconds()
	if x1.latMs > 0 {
		p.layers["workload.gc_intrusion_pct"] = 100 * x1.intrMs / x1.latMs
	}
	p.digest = digest(digests)
	return p, nil
}
