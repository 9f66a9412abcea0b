package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail resting on fewer points is noise, not a percentile.
const minBeyond = 10

// dist is one timing distribution, sorted ascending, in milliseconds.
type dist []float64

// newDist sorts a copy of durations into a distribution.
func newDist(ds []time.Duration) dist {
	d := make(dist, len(ds))
	for i, v := range ds {
		d[i] = float64(v) / float64(time.Millisecond)
	}
	sort.Float64s(d)
	return d
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1).
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(d)-1)
	lo := int(pos)
	if lo+1 >= len(d) {
		return d[len(d)-1]
	}
	return d[lo] + (pos-float64(lo))*(d[lo+1]-d[lo])
}

func (d dist) median() float64 { return d.quantile(0.5) }

// beyond counts the samples ranked strictly above the q-quantile.
func (d dist) beyond(q float64) int {
	if len(d) == 0 {
		return 0
	}
	return len(d) - 1 - int(math.Floor(q*float64(len(d)-1)))
}

// tail returns the highest of the standard percentiles (p99.9, p99, p90,
// p50) that leaves at least minBeyond samples beyond it, and that
// percentile.  ok is false when even the median lacks the support.
func (d dist) tail() (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if d.beyond(q) >= minBeyond {
			return q, d.quantile(q), true
		}
	}
	return 0, math.NaN(), false
}

// fixedTail is the q-quantile when the sample supports it (at least
// minBeyond samples beyond), else an error naming the shortfall.  The
// end-to-end tail metrics use one fixed percentile per workload so two
// runs report the same statistic.
func (d dist) fixedTail(q float64) (float64, error) {
	if n := d.beyond(q); n < minBeyond {
		return 0, fmt.Errorf("p%s needs %d samples beyond it, have %d of n=%d",
			pctName(q), minBeyond, n, len(d))
	}
	return d.quantile(q), nil
}

// pctName renders a quantile as a percentile label: 0.99 -> "99".
func pctName(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}

// geomean is the geometric mean of positive values; NaN when empty or
// when any value is not positive (a zero cost is a measuring bug).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		if !(v > 0) {
			return math.NaN()
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// evalSamples is the work an evaluation at eval extents (w, h) does, in
// samples: w*h*channels.  For a pipeline ending in a reduction the eval
// extents are the reduction's domain, so the count is domain samples,
// never the handful of output bytes the bin table occupies.
func evalSamples(w, h, channels int) int { return w * h * channels }

// nsPerSample normalises a millisecond timing by its sample count.
func nsPerSample(ms float64, samples int) float64 {
	return ms * 1e6 / float64(samples)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether a metric name fits the report format:
// letters, digits, '_', '.' and '-', starting with a letter or digit, at
// most 64 characters.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// mean is the arithmetic mean; NaN when empty.
func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// medianOf is the median of unsorted float values.
func medianOf(vs []float64) float64 {
	d := append(dist(nil), vs...)
	sort.Float64s(d)
	return d.median()
}
