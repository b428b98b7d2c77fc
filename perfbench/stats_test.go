package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repligc/internal/simtime"
)

// fakeClock drives spans from a test-controlled host clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestSelfTimeWithNestedSpans(t *testing.T) {
	c := &fakeClock{}
	sp := &spans{now: c.now}
	// run [0,100) holds collector [10,40), which holds merge [20,25),
	// and collector [60,70); then a set-up span [100,130) outside it.
	sp.begin(layerRun, 0)
	c.t = 10
	sp.begin(layerCollector, 1000)
	c.t = 20
	sp.begin(layerMerge, 1500)
	c.t = 25
	sp.end(1500)
	c.t = 40
	sp.end(3000)
	c.t = 60
	sp.begin(layerCollector, 5000)
	c.t = 70
	sp.end(5500)
	c.t = 100
	sp.end(9000)
	sp.begin(layerHeapNew, 0)
	c.t = 130
	sp.end(0)

	want := map[layer]time.Duration{layerRun: 60, layerCollector: 35, layerMerge: 5, layerHeapNew: 30}
	for l, d := range want {
		if sp.self[l] != d {
			t.Errorf("layer %d self = %v, want %v", l, sp.self[l], d)
		}
	}
	if sp.root[layerRun] != 100 || sp.runTreeSelf() != 100 {
		t.Errorf("run root %v, run-tree self %v, want both 100", sp.root[layerRun], sp.runTreeSelf())
	}
	if sp.calls[layerCollector] != 2 || sp.calls[layerMerge] != 1 {
		t.Errorf("calls = %v", sp.calls)
	}
	// Simulated time splits the same way: the collector's 2000+500 minus
	// the merge's 0; the run's 9000 minus the collector's 2500.
	if sp.simSelf[layerCollector] != 2500 || sp.simSelf[layerRun] != 6500 {
		t.Errorf("simulated self = %v", sp.simSelf)
	}

	var none *spans // untraced: every call is a no-op
	none.begin(layerRun, 0)
	none.end(0)
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []simtime.Duration {
		ds := make([]simtime.Duration, n)
		for i := range ds {
			ds[i] = simtime.Duration(n - i) // unsorted on purpose
		}
		return ds
	}
	for _, c := range []struct {
		p    float64
		n    int
		want simtime.Duration // 0: must fail
	}{
		{95, 199, 0},
		{95, 200, 190},
		{99.9, 9999, 0},
		{99.9, 10000, 9990},
		{50, 19, 0},
		{50, 20, 10},
	} {
		got, err := tail(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil || !strings.Contains(err.Error(), "samples") {
				t.Errorf("tail(p%v, n=%d) = %v, %v; want an error naming the sample count", c.p, c.n, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("tail(p%v, n=%d) = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := tail(nil, 50); err == nil {
		t.Error("tail of no samples succeeded")
	}
}

func TestMaxRateLadder(t *testing.T) {
	ok := func(rps, p999 float64) rung { return rung{rps: rps, p999Ms: p999, drainMs: 1} }
	for _, c := range []struct {
		name   string
		ladder []rung
		want   float64
	}{
		{"every rung passes", []rung{ok(400, 50), ok(500, 60), ok(600, 70)}, 600},
		{"interpolated at the latency limit", []rung{ok(400, 50), ok(500, 80), ok(600, 120)}, 550},
		{"first rung fails", []rung{ok(400, 150), ok(500, 200)}, 0},
		{"failed request stops the walk",
			[]rung{ok(400, 50), {rps: 500, p999Ms: 90, failed: 3, drainMs: 1}, ok(600, 95)}, 400},
		{"growing backlog stops the walk",
			[]rung{ok(400, 50), ok(500, 70), {rps: 600, p999Ms: 99, drainMs: 350}}, 500},
		{"latency and backlog together take the last passing rung",
			[]rung{ok(400, 50), {rps: 500, p999Ms: 300, drainMs: 900}}, 400},
		{"a later passing rung after a failure does not count",
			[]rung{ok(400, 50), ok(500, 150), ok(600, 90)}, 400 + 100*50.0/100},
		{"empty ladder", nil, 0},
	} {
		if got := maxRate(c.ladder, 100); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMedians(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if i := medianIndex([]float64{30, 10, 20, 40}); i != 2 {
		t.Errorf("medianIndex = %d, want 2 (the lower median, 20)", i)
	}
}

func TestCheckNames(t *testing.T) {
	decl := []declMetric{{"wall_s", "s"}, {"core.collector.self_s", "s"}, {"workload.slo_miss_pct", "%"}}
	all := map[string]float64{"wall_s": 1, "core.collector.self_s": 2, "workload.slo_miss_pct": 3}
	if err := checkNames(decl, all, true); err != nil {
		t.Fatalf("valid declaration rejected: %v", err)
	}
	if err := checkNames(decl, map[string]float64{"wall_s": 1}, false); err != nil {
		t.Errorf("an unexercised per-layer metric was rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		decl   []declMetric
		values map[string]float64
		all    bool
	}{
		{"leading dot", []declMetric{{".wall", "s"}}, nil, false},
		{"space", []declMetric{{"wall s", "s"}}, nil, false},
		{"too long", []declMetric{{strings.Repeat("a", 65), "s"}}, nil, false},
		{"bad unit", []declMetric{{"wall_s", "sec onds"}}, nil, false},
		{"long unit", []declMetric{{"wall_s", strings.Repeat("s", 17)}}, nil, false},
		{"declared twice", []declMetric{{"wall_s", "s"}, {"wall_s", "s"}}, nil, false},
		{"undeclared value", []declMetric{{"wall_s", "s"}}, map[string]float64{"cpu_s": 1}, false},
		{"end-to-end metric not measured", []declMetric{{"wall_s", "s"}}, map[string]float64{}, true},
	} {
		if err := checkNames(c.decl, c.values, c.all); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if !validName.MatchString(strings.Repeat("a", 64)) {
		t.Error("64-letter name rejected")
	}
}

// TestBenchmarkJSONMatchesProgram checks the committed BENCHMARK.json:
// names and units are well formed, and its end-to-end metrics are exactly
// the ones a pass measures.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		EndToEnd []struct {
			declMetric
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []declMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	var e2e []declMetric
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.declMetric)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	measured, err := pauseMetrics(make([]simtime.Pause, 200), simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb"} {
		measured[k] = 1
	}
	if err := checkNames(e2e, measured, true); err != nil {
		t.Error(err)
	}
	if err := checkNames(d.PerLayer, nil, false); err != nil {
		t.Error(err)
	}
}
