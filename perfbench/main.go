// Command perfbench is the repository benchmark. It builds the program's
// runtimes through their exported constructors, runs one workload for a
// fixed host-time budget, checks every output against an independent
// reference, and prints one JSON result line:
//
//	perfbench --workload sort|comp|serve|group4 --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics: host set-up,
// wall and CPU time and peak resident set, plus the paper's simulated pause
// and utilisation metrics. With --trace 1 it alternates untraced and traced
// passes and reports the per-layer split instead. The metric names, units
// and bounds are declared in BENCHMARK.json at the repository root, which
// must be the working directory; METRICS.md explains what each one means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	name := flag.String("workload", "", "workload: sort, comp, serve or group4")
	seed := flag.Uint64("seed", 1, "input seed (serve and group4; sort and comp are fixed programs)")
	seconds := flag.Int("seconds", 10, "host seconds to keep starting passes for")
	traceMode := flag.Int("trace", 0, "1: report the per-layer split from alternating untraced and traced passes")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traceMode)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	wl := workloads[i]
	traced := *traceMode == 1

	if err := wl.warm(); err != nil {
		return fmt.Errorf("%s: warm-up: %w", wl.name, err)
	}
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var passes []*pass
	for k := 0; ; k++ {
		p, err := wl.run(*seed, traced && k%2 == 1, k == 0)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		passes = append(passes, p)
		minPasses := 1
		if traced {
			minPasses = 2
		}
		if len(passes) >= minPasses && time.Now().After(deadline) && (!traced || len(passes)%2 == 0) {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var measured []*pass
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, msg := range p.problems {
			fmt.Fprintln(os.Stderr, "check failed:", msg)
			res.Correct = false
		}
		if p.sim != nil {
			measured = append(measured, p)
		}
	}
	if len(measured) == 0 || traced && !slices.ContainsFunc(measured, func(p *pass) bool { return p.traced != nil }) {
		res.Correct = false
		return emit(res, passes)
	}
	for _, msg := range agree(measured) {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
		res.Correct = false
	}

	want := decl.EndToEnd
	var values map[string]float64
	if traced {
		want = decl.PerLayer
		var problems []string
		values, problems = perLayer(measured)
		for _, msg := range problems {
			fmt.Fprintln(os.Stderr, "check failed:", msg)
			res.Correct = false
		}
	} else {
		values = endToEnd(measured)
	}
	if err := checkNames(want, values, !traced); err != nil {
		return err
	}
	for _, d := range want {
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return emit(res, passes)
}

// emit prints the sample counts behind the result and then the result
// line.
func emit(res *result, passes []*pass) error {
	n := 0
	for _, p := range passes {
		n += len(p.samples)
	}
	fmt.Printf("passes %d, host samples %d\n", len(passes), n)
	if len(passes) > 0 {
		for _, note := range passes[0].notes {
			fmt.Println(note)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// agree reports every way in which the passes of one run disagree on the
// simulated outcome. Tracing charges nothing to the simulated clock, so a
// traced pass must reproduce an untraced one bit for bit.
func agree(passes []*pass) []string {
	var out []string
	first := passes[0]
	var firstTraced *pass
	for i, p := range passes {
		if p.digest != first.digest || !maps.Equal(p.sim, first.sim) || !maps.Equal(p.layers, first.layers) {
			out = append(out, fmt.Sprintf("pass %d (traced %v) differs from pass 0 in its simulated results", i, p.traced != nil))
		}
		if p.traced == nil {
			continue
		}
		if firstTraced == nil {
			firstTraced = p
		} else if !maps.Equal(p.traced, firstTraced.traced) {
			out = append(out, fmt.Sprintf("traced pass %d recorded different events", i))
		}
	}
	return out
}

// endToEnd is the median of each host metric over all samples, plus the
// simulated metrics, which every pass reproduces exactly.
func endToEnd(passes []*pass) map[string]float64 {
	var setup, wall, cpu, rss []float64
	for _, p := range passes {
		for _, s := range p.samples {
			setup = append(setup, s.setup.Seconds())
			wall = append(wall, s.wall.Seconds())
			cpu = append(cpu, s.cpu.Seconds())
			rss = append(rss, s.peakRSSMB)
		}
	}
	out := maps.Clone(passes[0].sim)
	out["setup_s"] = median(setup)
	out["wall_s"] = median(wall)
	out["cpu_s"] = median(cpu)
	out["peak_rss_mb"] = median(rss)
	return out
}

// perLayer reports the per-layer split of the traced pass whose total run
// time is the median among traced passes, so its self times add up to its
// own traced wall time; the counters are the same on every pass.
func perLayer(passes []*pass) (map[string]float64, []string) {
	var traced []*pass
	var tracedWall, plainWall []float64
	for _, p := range passes {
		var w float64
		for _, s := range p.samples {
			w += s.wall.Seconds()
		}
		if p.traced != nil {
			traced = append(traced, p)
			tracedWall = append(tracedWall, w)
		} else {
			plainWall = append(plainWall, w)
		}
	}
	rep := traced[medianIndex(tracedWall)]
	var problems []string

	var sp spans
	var s sample
	for _, smp := range rep.samples {
		if len(smp.sp.stack) != 0 {
			problems = append(problems, "a span was left open")
		}
		sp.add(smp.sp)
		s.addTraced(smp)
	}
	if sp.root[layerCollector] != 0 || sp.root[layerMerge] != 0 || sp.runTreeSelf() != sp.root[layerRun] {
		problems = append(problems, fmt.Sprintf("layer self times %v do not add up to the traced run time %v",
			sp.runTreeSelf(), sp.root[layerRun]))
	}

	out := maps.Clone(rep.layers)
	for k, v := range rep.traced {
		out[k] = v
	}
	if out["trace.dropped"] != 0 {
		problems = append(problems, fmt.Sprintf("trace recorders dropped %v events", out["trace.dropped"]))
	}
	if n := out["core.collector.log_scanned"]; n > 0 {
		out["core.collector.reapply_ratio"] = out["core.collector.log_reapplied"] / n
	}
	skips := out["core.mutator.nursery_skips"] + out["core.mutator.dirty_skips"]
	if n := skips + out["core.mutator.log_writes"]; n > 0 {
		out["core.mutator.barrier_filter_ratio"] = skips / n
	}
	out["heap.new_s"] = sp.self[layerHeapNew].Seconds()
	out["heap.new_alloc_mb"] = s.heapNewAllocMB
	out["heap.runtimes"] = float64(sp.calls[layerHeapNew])
	out["core.collector.self_s"] = sp.self[layerCollector].Seconds()
	out["core.collector.calls"] = float64(sp.calls[layerCollector])
	out["core.collector.sim_ms"] = sp.simSelf[layerCollector].Milliseconds()
	out["core.mutator.self_s"] = sp.self[layerRun].Seconds()
	out["core.mutator.sim_ms"] = (sp.simSelf[layerRun] - s.simIdle).Milliseconds()
	out["core.group.merge_s"] = sp.self[layerMerge].Seconds()
	out["core.group.merges"] = float64(sp.calls[layerMerge])
	out["workload.generate_s"] = sp.self[layerGenerate].Seconds()
	if out["workload.requests"] > 0 { // only serve runs the serving engine
		out["workload.serve_s"] = sp.root[layerRun].Seconds()
	}
	out["go.alloc_mb"] = s.goAllocMB
	out["go.gc_cycles"] = s.goGCCycles
	out["go.gc_pause_s"] = s.goGCPauseS
	out["trace.wall_s"] = sp.root[layerRun].Seconds()
	out["trace.overhead_pct"] = 100 * (median(tracedWall)/median(plainWall) - 1)
	return out, problems
}

// declared is the part of BENCHMARK.json this program must agree with.
type declared struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
