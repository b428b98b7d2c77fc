package workload

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repligc/internal/faultinject"
)

// testSpec is a two-cohort serving mix small enough for unit tests but busy
// enough to provoke collections on the default heap: an interactive cohort
// with tight SLOs and a mutation-heavy batch cohort with bursty arrivals.
func testSpec() *Spec {
	return &Spec{
		Name:       "test-mixed",
		Seed:       7,
		DurationMs: 1500,
		Cohorts: []Cohort{
			{
				Name:    "interactive",
				Arrival: Arrival{Law: LawPoisson, RatePerSec: 400},
				Profile: Profile{
					ObjsPerReq: 6, ObjWords: 16, RetainPct: 0.25,
					SessionWords: 64, SessionReqs: 8,
					Mutations: 12, WorkSteps: 2000,
				},
				SLO: SLO{TargetMs: 2, DeadlineMs: 10},
			},
			{
				Name: "batch-ingest",
				Arrival: Arrival{
					Law: LawGamma, RatePerSec: 40, Shape: 0.7,
					Burst: &Burst{OnMs: 200, OffMs: 100, OffFactor: 4},
				},
				Profile: Profile{
					ObjsPerReq: 40, ObjWords: 64, RetainPct: 0.5,
					SessionWords: 256, SessionReqs: 4,
					Mutations: 48, WorkSteps: 20000,
				},
				SLO: SLO{TargetMs: 20, DeadlineMs: 100},
			},
		},
	}
}

func mustGenerate(t *testing.T, spec *Spec) *Trace {
	t.Helper()
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Reqs) == 0 {
		t.Fatal("Generate produced no requests")
	}
	return tr
}

func TestGenerateDeterministicAndSeedSensitive(t *testing.T) {
	a := mustGenerate(t, testSpec())
	b := mustGenerate(t, testSpec())
	if !reflect.DeepEqual(a.Reqs, b.Reqs) {
		t.Fatal("same spec generated different traces")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same spec generated different fingerprints")
	}
	other := testSpec()
	other.Seed = 8
	c := mustGenerate(t, other)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds generated identical traces")
	}
	// Arrivals are sorted and in-horizon.
	last := a.Reqs[0].At
	for _, r := range a.Reqs {
		if r.At < last {
			t.Fatal("trace arrivals are not sorted")
		}
		last = r.At
		if r.At.Milliseconds() >= testSpec().DurationMs {
			t.Fatalf("arrival %v beyond the %v ms horizon", r.At, testSpec().DurationMs)
		}
	}
}

func TestArrivalLaws(t *testing.T) {
	for _, law := range []string{LawPoisson, LawGamma, LawWeibull, LawDeterministic} {
		spec := testSpec()
		spec.Cohorts = spec.Cohorts[:1]
		spec.Cohorts[0].Arrival = Arrival{Law: law, RatePerSec: 200, Shape: 1.5}
		tr := mustGenerate(t, spec)
		// Open-loop rate: expect roughly rate*duration arrivals; the laws all
		// have the configured mean, so a factor-2 band is generous.
		want := 200 * spec.DurationMs / 1000
		if n := float64(len(tr.Reqs)); n < want/2 || n > want*2 {
			t.Errorf("law %s: %d requests, want about %.0f", law, len(tr.Reqs), want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	enc, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if !reflect.DeepEqual(tr.Reqs, dec.Reqs) {
		t.Fatal("decoded requests differ from encoded")
	}
	if tr.Fingerprint() != dec.Fingerprint() {
		t.Fatal("decoded fingerprint differs")
	}
	// Re-encoding the decoded trace is bit-identical: the artifact is a
	// canonical form.
	enc2, err := EncodeTrace(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(enc) != string(enc2) {
		t.Fatal("re-encoded artifact differs byte-for-byte")
	}
}

func TestTraceCorruptionDetected(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	enc, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	cases := map[string]func([]byte) []byte{
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped byte": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-7] },
		"no footer":    func(b []byte) []byte { return b[:len(b)-29] },
	}
	for name, mutate := range cases {
		cp := append([]byte(nil), enc...)
		if _, err := DecodeTrace(mutate(cp)); err == nil {
			t.Errorf("%s: decode accepted a damaged artifact", name)
		} else {
			var ce *TraceCorruptError
			if !asTraceCorrupt(err, &ce) {
				t.Errorf("%s: error %v is not a *TraceCorruptError", name, err)
			}
		}
	}
}

func asTraceCorrupt(err error, target **TraceCorruptError) bool {
	for err != nil {
		if ce, ok := err.(*TraceCorruptError); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestDeterminismMatrix is the satellite matrix: for each collector, serving
// the same trace twice is bit-identical (reports and heap fingerprints), and
// the semantic heap fingerprint agrees across collectors — the incremental
// real-time collector, its lazy variant, and the non-incremental core all
// computed the same session graph.
func TestDeterminismMatrix(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	fps := map[string]string{}
	for _, coll := range []string{CollectorRT, CollectorRTLazy, CollectorStopCopyCore} {
		var legs [2]*Leg
		for round := 0; round < 2; round++ {
			rt, err := NewRuntime(tr.Spec, RuntimeOptions{Collector: coll})
			if err != nil {
				t.Fatalf("%s: NewRuntime: %v", coll, err)
			}
			leg, err := Serve(rt, tr, "det", ServeOptions{})
			if err != nil {
				t.Fatalf("%s: Serve: %v", coll, err)
			}
			legs[round] = leg
		}
		a, _ := json.Marshal(legs[0])
		b, _ := json.Marshal(legs[1])
		if string(a) != string(b) {
			t.Errorf("%s: two runs of the same trace produced different reports", coll)
		}
		fps[coll] = legs[0].HeapFingerprint
		if legs[0].Requests != len(tr.Reqs) {
			t.Errorf("%s: served %d of %d requests", coll, legs[0].Requests, len(tr.Reqs))
		}
	}
	if fps[CollectorRT] != fps[CollectorRTLazy] || fps[CollectorRT] != fps[CollectorStopCopyCore] {
		t.Errorf("heap fingerprints disagree across collectors: %v", fps)
	}
}

// TestReplayMatchesRecording: serving a decoded artifact yields exactly the
// metrics of serving the original trace.
func TestReplayMatchesRecording(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	enc, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	secA, err := RunLegs(tr, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs(recorded): %v", err)
	}
	secB, err := RunLegs(dec, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs(replayed): %v", err)
	}
	a, _ := json.Marshal(secA)
	b, _ := json.Marshal(secB)
	if string(a) != string(b) {
		t.Fatal("replaying the recorded trace produced different metrics")
	}
}

// TestNaiveBarrierWorseTails: on the same trace, the append-every-store
// barrier must show measurably worse tail latency than the coalescing
// barrier — the serving-facing form of the perf trajectory's headline.
func TestNaiveBarrierWorseTails(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	sec, err := RunLegs(tr, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs: %v", err)
	}
	if len(sec.Legs) != 2 {
		t.Fatalf("expected 2 legs, got %d", len(sec.Legs))
	}
	naive, coal := sec.Legs[0], sec.Legs[1]
	if naive.Name != "naive-barrier" || coal.Name != "coalesced" {
		t.Fatalf("unexpected leg order: %s, %s", naive.Name, coal.Name)
	}
	if naive.HeapFingerprint != coal.HeapFingerprint {
		t.Fatal("barrier legs computed different session graphs")
	}
	worse := 0
	for i := range naive.Cohorts {
		if naive.Cohorts[i].Latency.P99 > coal.Cohorts[i].Latency.P99 {
			worse++
		}
		if naive.Cohorts[i].Latency.P99 < coal.Cohorts[i].Latency.P99 {
			t.Errorf("cohort %s: naive p99 %.3f ms beats coalesced %.3f ms",
				naive.Cohorts[i].Name, naive.Cohorts[i].Latency.P99, coal.Cohorts[i].Latency.P99)
		}
	}
	if worse == 0 {
		t.Errorf("naive barrier shows no tail-latency penalty on any cohort (naive p99s %v, coalesced %v)",
			[]float64{naive.Cohorts[0].Latency.P99, naive.Cohorts[1].Latency.P99},
			[]float64{coal.Cohorts[0].Latency.P99, coal.Cohorts[1].Latency.P99})
	}
}

// TestFaultInjectionUnderLoad drives a log-spike-plus-shrink plan under live
// traffic: the degradation ladder's emergency pauses must surface as SLO
// misses in the serving report, never as a crash.
func TestFaultInjectionUnderLoad(t *testing.T) {
	spec := testSpec()
	tr := mustGenerate(t, spec)
	rt, err := NewRuntime(spec, RuntimeOptions{Collector: CollectorRT})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	// One event per ~40 requests: spikes of logged mutations plus old-space
	// shrinks with tiny slack, restored before the end so the run finishes.
	n := len(tr.Reqs)
	plan := faultinject.Plan{Events: []faultinject.Event{
		{AtOp: int64(n / 8), Action: faultinject.LogSpike, Arg: 4096},
		{AtOp: int64(n / 4), Action: faultinject.ShrinkOld, Arg: 64 << 10},
		{AtOp: int64(n/4 + 10), Action: faultinject.LogSpike, Arg: 4096},
		{AtOp: int64(n/4 + 30), Action: faultinject.RestoreHeadroom},
		{AtOp: int64(n / 2), Action: faultinject.LogSpike, Arg: 8192},
	}}
	inj := faultinject.New(rt.Mutator, plan)
	leg, err := Serve(rt, tr, "faulted", ServeOptions{Inject: inj.Tick})
	if err != nil {
		t.Fatalf("Serve under fault injection: %v", err)
	}
	if inj.Injected != len(plan.Events) {
		t.Fatalf("injected %d of %d events", inj.Injected, len(plan.Events))
	}
	if leg.EmergencyCollections == 0 {
		t.Error("shrunken old space provoked no degradation-ladder emergencies")
	}
	lateOrMissed := 0
	for _, c := range leg.Cohorts {
		lateOrMissed += c.SLO.Late + c.SLO.Missed
	}
	if lateOrMissed == 0 {
		t.Error("emergency pauses left no mark on any cohort's SLO breakdown")
	}
}

func TestSectionValidates(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	sec, err := RunLegs(tr, StandardLegs())
	if err != nil {
		t.Fatalf("RunLegs: %v", err)
	}
	data, err := json.MarshalIndent(BuildReport(sec), "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("ValidateReport rejected a genuine report: %v", err)
	}
	// Every leg carries the serving section's required shape.
	for _, leg := range sec.Legs {
		if len(leg.MMU) == 0 || len(leg.Cohorts) != len(tr.Spec.Cohorts) {
			t.Fatalf("leg %s: missing MMU or cohorts", leg.Name)
		}
		for _, c := range leg.Cohorts {
			if c.SLO.Met+c.SLO.Late+c.SLO.Missed != c.Requests {
				t.Fatalf("leg %s cohort %s: SLO classes do not partition requests", leg.Name, c.Name)
			}
		}
	}
	// Perturbations must be rejected.
	bad := strings.Replace(string(data), ReportSchema, "repligc-bench/4", 1)
	if err := ValidateReport([]byte(bad)); err == nil {
		t.Error("ValidateReport accepted a stale schema")
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Serving.Legs[0].Cohorts[0].SLO.Met++
	perturbed, _ := json.Marshal(rep)
	if err := ValidateReport(perturbed); err == nil {
		t.Error("ValidateReport accepted an inconsistent SLO breakdown")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"empty name":     func(s *Spec) { s.Name = "" },
		"no cohorts":     func(s *Spec) { s.Cohorts = nil },
		"zero duration":  func(s *Spec) { s.DurationMs = 0 },
		"dup cohort":     func(s *Spec) { s.Cohorts[1].Name = s.Cohorts[0].Name },
		"bad law":        func(s *Spec) { s.Cohorts[0].Arrival.Law = "zipf" },
		"zero rate":      func(s *Spec) { s.Cohorts[0].Arrival.RatePerSec = 0 },
		"gamma no shape": func(s *Spec) { s.Cohorts[1].Arrival.Shape = 0 },
		"slo inverted":   func(s *Spec) { s.Cohorts[0].SLO.DeadlineMs = 1 },
		"tiny session":   func(s *Spec) { s.Cohorts[0].Profile.SessionWords = 1 },
		"bad retain":     func(s *Spec) { s.Cohorts[0].Profile.RetainPct = 1.5 },
		"burst factor":   func(s *Spec) { s.Cohorts[1].Arrival.Burst.OffFactor = 0.5 },
	}
	for name, breakIt := range cases {
		s := testSpec()
		breakIt(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken spec", name)
		}
	}
	// ParseSpec rejects unknown fields.
	if _, err := ParseSpec([]byte(`{"name":"x","duration_ms":1,"cohorts":[],"typo_field":1}`)); err == nil {
		t.Error("ParseSpec accepted an unknown field")
	}
}

// TestCommittedSpecFingerprintPinned pins the end-of-run heap fingerprint
// of the committed serving spec under the real-time collector to the value
// taken before the walker moved into core, so the cohort markers and the
// walk's encoding stay bit-identical.
func TestCommittedSpecFingerprintPinned(t *testing.T) {
	data, err := os.ReadFile("../../examples/serve/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(spec, RuntimeOptions{Collector: CollectorRT})
	if err != nil {
		t.Fatal(err)
	}
	leg, err := Serve(rt, mustGenerate(t, spec), "pin", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "b4251bcb900cc154"; leg.HeapFingerprint != want {
		t.Fatalf("heap fingerprint %s, want %s", leg.HeapFingerprint, want)
	}
}
