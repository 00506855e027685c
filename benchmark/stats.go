package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: with fewer, the "percentile" is one or two
// unlucky samples and moves from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether xs supports it: at least minBeyond samples must lie strictly
// beyond the reported rank.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle of xs (the mean of the two middle values
// for even counts); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowRates turns wall-clock readings taken every opsPerWindow ops
// into one throughput per window. Every window holds the same amount
// of work, so a host stall moves only the windows it touches, and the
// median over windows ignores them.
func windowRates(t []float64, opsPerWindow int) []float64 {
	out := make([]float64, 0, len(t))
	for i := 1; i < len(t); i++ {
		out = append(out, float64(opsPerWindow)/(t[i]-t[i-1]))
	}
	return out
}

// windowCosts turns cumulative cost readings (CPU seconds, say) taken
// every opsPerWindow ops into one cost per op per window.
func windowCosts(c []float64, opsPerWindow int) []float64 {
	out := make([]float64, 0, len(c))
	for i := 1; i < len(c); i++ {
		out = append(out, (c[i]-c[i-1])/float64(opsPerWindow))
	}
	return out
}

// subtractLayer splits a total cost measured end to end into the part
// a measured inner layer does not account for, and that part's share
// of the total (the total is the share's base; 0 when it is 0). The
// http layer lives in the server's main package with no function to
// wrap in a span, so its cost is the served total minus the in-process
// cost of the same work in the layers below it.
func subtractLayer(total, inner float64) (rest, share float64) {
	rest = total - inner
	if total == 0 {
		return rest, 0
	}
	return rest, rest / total
}
