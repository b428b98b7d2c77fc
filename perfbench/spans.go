package main

// Per-layer time, measured from outside the program: the benchmark opens a
// span around each call it makes into a layer's public functions (runtime
// constructors, trace generation, the serving and paper workloads) and, via
// timedCollector and the group's pre-epoch hook, around every call the
// mutator makes into the collector and every log merge. A layer's self time
// is its spans' duration minus the part covered by spans nested inside them,
// so the self times of one tree add up to its root span exactly.

import (
	"time"

	"repligc/internal/core"
	"repligc/internal/simtime"
)

// layer names one span kind.
type layer int

const (
	layerHeapNew   layer = iota // runtime constructors (heap.New zeroes the spaces; the core constructors are O(1))
	layerGenerate               // workload.Generate
	layerSetup                  // other set-up calls (gctest.NewMultiDriver)
	layerRun                    // the workload itself: VM (sort), compiler (comp), engine (serve), drivers (group4)
	layerCollector              // CollectForAlloc / FinishCycles / CollectEmergency
	layerMerge                  // the group's pause-entry log merge
	numLayers
)

// spans aggregates nested host-time spans per layer. A nil *spans records
// nothing, so untraced runs pay one comparison per call site.
type spans struct {
	now   func() time.Duration // host clock; a fake in tests
	stack []frame

	self    [numLayers]time.Duration // span time not covered by child spans
	root    [numLayers]time.Duration // duration of spans opened with an empty stack
	calls   [numLayers]int
	simSelf [numLayers]simtime.Duration // the same split on the simulated clock
}

type frame struct {
	l        layer
	start    time.Duration
	sim      simtime.Duration
	child    time.Duration
	childSim simtime.Duration
}

func newSpans() *spans {
	t0 := time.Now()
	return &spans{now: func() time.Duration { return time.Since(t0) }}
}

// begin opens a span of layer l at simulated time sim.
func (s *spans) begin(l layer, sim simtime.Duration) {
	if s == nil {
		return
	}
	s.stack = append(s.stack, frame{l: l, start: s.now(), sim: sim})
}

// end closes the innermost span at simulated time sim.
func (s *spans) end(sim simtime.Duration) {
	if s == nil {
		return
	}
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	d := s.now() - f.start
	ds := sim - f.sim
	s.self[f.l] += d - f.child
	s.simSelf[f.l] += ds - f.childSim
	s.calls[f.l]++
	if len(s.stack) == 0 {
		s.root[f.l] += d
		return
	}
	p := &s.stack[len(s.stack)-1]
	p.child += d
	p.childSim += ds
}

// add folds o's totals into s.
func (s *spans) add(o *spans) {
	for l := range numLayers {
		s.self[l] += o.self[l]
		s.root[l] += o.root[l]
		s.calls[l] += o.calls[l]
		s.simSelf[l] += o.simSelf[l]
	}
}

// runTreeSelf is the summed self time of the layers that nest inside run
// spans; it equals root[layerRun] whenever every collector call and merge
// happened inside a run span.
func (s *spans) runTreeSelf() time.Duration {
	return s.self[layerRun] + s.self[layerCollector] + s.self[layerMerge]
}

// timedCollector wraps the replicating collector to time the calls the
// mutator makes into it. It embeds the concrete collector, so every
// optional capability the mutator and the audit type-assert (Pacer,
// PromoteSpace, OldAllocNoter, EmergencyCollector, ScanAuditor, SetTrace)
// is promoted unchanged; the traced-equals-untraced check catches any that
// would not be.
type timedCollector struct {
	*core.Replicating
	sp *spans
	// finishAt is the simulated time at which FinishCycles was last
	// entered. finished, when set, runs as soon as FinishCycles returns:
	// the serving engine digests its report after FinishCycles inside
	// Serve, so this is where the benchmark stops the run clock.
	finishAt simtime.Duration
	finished func()
}

func (c *timedCollector) CollectForAlloc(m *core.Mutator, needWords int) error {
	c.sp.begin(layerCollector, m.Clock.Now())
	err := c.Replicating.CollectForAlloc(m, needWords)
	c.sp.end(m.Clock.Now())
	return err
}

func (c *timedCollector) FinishCycles(m *core.Mutator) error {
	c.finishAt = m.Clock.Now()
	c.sp.begin(layerCollector, c.finishAt)
	err := c.Replicating.FinishCycles(m)
	c.sp.end(m.Clock.Now())
	if c.finished != nil {
		c.finished()
	}
	return err
}

func (c *timedCollector) CollectEmergency(m *core.Mutator) error {
	c.sp.begin(layerCollector, m.Clock.Now())
	err := c.Replicating.CollectEmergency(m)
	c.sp.end(m.Clock.Now())
	return err
}
