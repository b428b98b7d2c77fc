package repligc_test

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repligc"
)

func TestQuickstartFacade(t *testing.T) {
	rt, err := repligc.NewRealTime(repligc.RealTimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.CompileAndRun(`print ("6*7=" ^ itos (6 * 7) ^ "\n")`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "6*7=42\n" {
		t.Fatalf("output %q", out)
	}
	rt.Finish()
	if !strings.Contains(rt.StatsSummary(), "rt:") {
		t.Errorf("summary: %s", rt.StatsSummary())
	}
}

func TestFacadeCollectsUnderPressure(t *testing.T) {
	rt, err := repligc.NewRealTime(repligc.RealTimeOptions{
		NurseryBytes:        64 << 10,
		MajorThresholdBytes: 256 << 10,
		CopyLimitBytes:      16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.CompileAndRun(`
fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
fun sum l = case l of [] => 0 | x :: r => x + sum r in
fun loop k acc = if k = 0 then acc else loop (k - 1) (acc + sum (build 200 [])) in
print (itos (loop 500 0))`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "10050000" {
		t.Fatalf("output %q", out)
	}
	rt.Finish()
	st := rt.GC.Stats()
	if st.MinorCollections == 0 || st.MajorCollections == 0 {
		t.Fatalf("collections: %d minor, %d major", st.MinorCollections, st.MajorCollections)
	}
}

func TestStopCopyFacadeMatchesRealTime(t *testing.T) {
	prog := `
fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
print (itos (fib 18))`
	rt, _ := repligc.NewRealTime(repligc.RealTimeOptions{})
	sc, _ := repligc.NewStopCopy(0, 0)
	a, err := rt.CompileAndRun(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.CompileAndRun(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("outputs differ: %q vs %q", a, b)
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	rt, _ := repligc.NewRealTime(repligc.RealTimeOptions{})
	if _, err := rt.CompileAndRun(`nonexistent_variable`); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestSampleProgramsRun(t *testing.T) {
	cases := []struct {
		file    string
		prelude bool
		want    string // substring of the expected output
	}{
		{"examples/miniml/sieve.ml", false, "2 3 5 7 11"},
		{"examples/miniml/queens.ml", true, "queens 8 -> 92"},
		{"examples/miniml/life.ml", true, "alive after 30 generations: 5"},
		{"examples/miniml/huffman.ml", true, "weighted code length: 13195"},
	}
	for _, c := range cases {
		src, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		text := string(src)
		if c.prelude {
			text = repligc.Prelude + text
		}
		rt, err := repligc.NewRealTime(repligc.RealTimeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rt.CompileAndRun(text)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: output %q missing %q", c.file, out, c.want)
		}
	}
}

// TestConstructorsRejectBadSizes: negative sizes and arenas past
// heap.MaxArenaBytes come back from every facade constructor as a typed
// *ConfigError naming the option, never as a panic inside heap.New.
func TestConstructorsRejectBadSizes(t *testing.T) {
	const gib = int64(1) << 30
	rt := func(o repligc.RealTimeOptions) func() (*repligc.Runtime, error) {
		return func() (*repligc.Runtime, error) { return repligc.NewRealTime(o) }
	}
	for _, c := range []struct {
		name  string
		build func() (*repligc.Runtime, error)
		field string // "" when the options are valid
	}{
		{"defaults", rt(repligc.RealTimeOptions{}), ""},
		{"explicit heap", rt(repligc.RealTimeOptions{HeapConfig: repligc.HeapConfig{NurseryBytes: 64 << 10, NurseryCapBytes: 1 << 20, OldSemiBytes: 8 << 20}}), ""},
		{"cap below nursery", rt(repligc.RealTimeOptions{HeapConfig: repligc.HeapConfig{NurseryBytes: 1 << 20, NurseryCapBytes: 64 << 10, OldSemiBytes: 8 << 20}}), ""},
		{"negative nursery", rt(repligc.RealTimeOptions{NurseryBytes: -1}), "NurseryBytes"},
		{"negative major threshold", rt(repligc.RealTimeOptions{MajorThresholdBytes: -1}), "MajorThresholdBytes"},
		{"negative copy limit", rt(repligc.RealTimeOptions{CopyLimitBytes: -8}), "CopyLimitBytes"},
		{"negative tax", rt(repligc.RealTimeOptions{InterleavedTaxPermille: -1}), "InterleavedTaxPermille"},
		{"negative heap nursery", rt(repligc.RealTimeOptions{HeapConfig: repligc.HeapConfig{NurseryBytes: -1}}), "HeapConfig.NurseryBytes"},
		{"negative nursery cap", rt(repligc.RealTimeOptions{HeapConfig: repligc.HeapConfig{NurseryCapBytes: -1}}), "HeapConfig.NurseryCapBytes"},
		{"negative semispace", rt(repligc.RealTimeOptions{HeapConfig: repligc.HeapConfig{OldSemiBytes: -1}}), "HeapConfig.OldSemiBytes"},
		{"semispaces past the limit", rt(repligc.RealTimeOptions{HeapConfig: repligc.HeapConfig{OldSemiBytes: 3 * gib}}), "HeapConfig.OldSemiBytes"},
		{"default cap past the limit", rt(repligc.RealTimeOptions{NurseryBytes: 128 << 20}), "nursery cap"},
		{"huge nursery", rt(repligc.RealTimeOptions{NurseryBytes: 1 << 62}), "nursery cap"},
		{"nursery cap past the limit", rt(repligc.RealTimeOptions{HeapConfig: repligc.HeapConfig{NurseryCapBytes: 5 * gib}}), "nursery cap"},
		{"stop-copy negative nursery", func() (*repligc.Runtime, error) { return repligc.NewStopCopy(-1, 0) }, "nurseryBytes"},
		{"stop-copy negative threshold", func() (*repligc.Runtime, error) { return repligc.NewStopCopy(0, -1) }, "majorThresholdBytes"},
		{"replay huge nursery", func() (*repligc.Runtime, error) { return repligc.NewStopCopyReplay(1<<40, nil) }, "nursery cap"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.build()
			if c.field == "" {
				if err != nil || r == nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			var ce *repligc.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != c.field || r != nil {
				t.Fatalf("error names %q (runtime %v), want %q", ce.Field, r, c.field)
			}
		})
	}
}
