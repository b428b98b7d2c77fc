package main

import (
	"fmt"
	"math"
	"sort"

	"repligc/internal/simtime"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// Fewer would make the percentile a single outlier's value.
const minBeyond = 10

// tail returns the p-th percentile of ds by the repository's nearest-rank
// rule (simtime.Percentiles: rank ceil(p·n/100)) and fails when fewer than
// minBeyond samples rank above it. The error names the sample count, so an
// undersized run says how far short it fell.
func tail(ds []simtime.Duration, p float64) (simtime.Duration, error) {
	n := len(ds)
	if n == 0 {
		return 0, fmt.Errorf("p%v of no samples", p)
	}
	if beyond := n - nearestRank(n, p); beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	return simtime.Percentile(ds, p), nil
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// ceil(p·n/100) clamped to [1, n], computed on the same micro-percent
// integer grid as simtime so the two never disagree.
func nearestRank(n int, p float64) int {
	micro := int64(math.Round(p * 1e6))
	r := int((micro*int64(n) + 100e6 - 1) / 100e6)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median of xs (the mean of the middle pair for even counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianIndex is the index in xs of its lower-median element, so a sample
// can be reported whole (its parts still add up) rather than as a mix of
// per-part medians.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

// rung is one offered-load step of the serving ladder, pooled over the
// run's traces.
type rung struct {
	rps     float64 // offered interactive rate
	p999Ms  float64 // pooled interactive p99.9 latency
	failed  int     // requests not served (Serve aborted)
	drainMs float64 // median over traces of last completion minus last arrival
}

// passes reports whether r sustains its rate: the latency limit holds on
// p99.9, nothing failed, and the queue left at the horizon drains within
// the limit (a backlog that grows with time would not).
func (r rung) passes(limitMs float64) bool {
	return r.p999Ms <= limitMs && r.failed == 0 && r.drainMs <= limitMs
}

// maxRate is the highest offered rate the ladder sustains. Walking up,
// rungs must pass without a gap. When the first failing rung fails on
// latency alone, the rate is interpolated linearly in p99.9 between it and
// the last passing rung: the pooled p99.9 near the limit moves by a few
// percent between seeds, and a bare rung would turn that into a jump of a
// whole rung. It is 0 when even the first rung fails.
func maxRate(ladder []rung, limitMs float64) float64 {
	for i, r := range ladder {
		if r.passes(limitMs) {
			continue
		}
		if i == 0 {
			return 0
		}
		prev := ladder[i-1]
		if r.failed > 0 || r.drainMs > limitMs {
			return prev.rps
		}
		frac := (limitMs - prev.p999Ms) / (r.p999Ms - prev.p999Ms)
		return prev.rps + frac*(r.rps-prev.rps)
	}
	if len(ladder) == 0 {
		return 0
	}
	return ladder[len(ladder)-1].rps
}
