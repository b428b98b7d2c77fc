package main

// Host-side measurement: wall clock, process CPU time, peak resident set
// and the Go runtime's own allocation and GC counters.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repligc/internal/simtime"
)

// sample is the host-side cost of one measured iteration: one run of a
// paper workload or of group4, or one trace's whole ladder for serve.
type sample struct {
	setup, wall, cpu time.Duration
	peakRSSMB        float64
	simIdle          simtime.Duration // simulated server idle time inside the run intervals

	// Traced iterations only.
	sp             *spans
	heapNewAllocMB float64 // Go allocation inside runtime constructors
	goAllocMB      float64 // Go allocation during the run
	goGCCycles     float64
	goGCPauseS     float64
}

// addTraced folds o's simulated idle time and traced-only counters into s.
func (s *sample) addTraced(o *sample) {
	s.simIdle += o.simIdle
	s.heapNewAllocMB += o.heapNewAllocMB
	s.goAllocMB += o.goAllocMB
	s.goGCCycles += o.goGCCycles
	s.goGCPauseS += o.goGCPauseS
}

// meter accumulates one sample. Set-up calls and run intervals may
// alternate (serve builds a runtime per rung); each kind adds up.
type meter struct {
	s *sample

	running  bool
	runStart time.Time
	cpuStart time.Duration
	idle     simtime.Duration
	msStart  runtime.MemStats
}

func newMeter(traced bool) (*meter, error) {
	mt := &meter{s: &sample{}}
	if traced {
		mt.s.sp = newSpans()
	}
	// Every sample starts from a collected Go heap, so no sample pays for
	// garbage an earlier one left, and the peak resident set starts from
	// the live footprint and covers this sample's set-up and run only.
	runtime.GC()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	return mt, nil
}

// setup times one set-up call as layer l.
func (mt *meter) setup(l layer, f func() error) error {
	var before runtime.MemStats
	traced := mt.s.sp != nil
	if traced && l == layerHeapNew {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	mt.s.sp.begin(l, 0)
	err := f()
	mt.s.sp.end(0)
	mt.s.setup += time.Since(t0)
	if traced && l == layerHeapNew {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		mt.s.heapNewAllocMB += mb(int64(after.TotalAlloc - before.TotalAlloc))
	}
	return err
}

// startRun opens a run interval on the simulated clock c.
func (mt *meter) startRun(c *simtime.Clock) {
	if mt.s.sp != nil {
		runtime.ReadMemStats(&mt.msStart)
	}
	mt.running = true
	mt.idle = c.AccountTotal(simtime.AcctIdle)
	mt.cpuStart = cpuTime()
	mt.runStart = time.Now()
	mt.s.sp.begin(layerRun, c.Now())
}

// stopRun closes the open run interval, if any.
func (mt *meter) stopRun(c *simtime.Clock) {
	if !mt.running {
		return
	}
	mt.s.sp.end(c.Now())
	mt.s.wall += time.Since(mt.runStart)
	mt.s.cpu += cpuTime() - mt.cpuStart
	mt.s.simIdle += c.AccountTotal(simtime.AcctIdle) - mt.idle
	mt.running = false
	if mt.s.sp != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mt.s.goAllocMB += mb(int64(ms.TotalAlloc - mt.msStart.TotalAlloc))
		mt.s.goGCCycles += float64(ms.NumGC - mt.msStart.NumGC)
		mt.s.goGCPauseS += time.Duration(ms.PauseTotalNs - mt.msStart.PauseTotalNs).Seconds()
	}
}

// finish reads the peak resident set reached since newMeter and returns
// the sample. Call it before any output check runs.
func (mt *meter) finish() (*sample, error) {
	kb, err := statusKB("VmHWM")
	if err != nil {
		return nil, err
	}
	mt.s.peakRSSMB = float64(kb) / 1024
	return mt.s, nil
}

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Getrusage(RUSAGE_SELF) fails only for an invalid who argument.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusKB reads a kB-valued field of /proc/self/status.
func statusKB(field string) (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/self/status %s: %w", field, err)
		}
		return v, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no %s", field)
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }
