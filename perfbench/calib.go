package main

import (
	"slices"
	"time"
)

// On the shared host the bounds were set on, the same single-threaded code
// runs at speeds up to 2x apart, switching sub-second to minutes at a
// time, even at one P: other tenants load the cores under the vCPUs. A raw
// median reads whichever speed held for most of a run, so raw medians of
// ten runs spread 0.4-0.6.
//
// So the closed-loop latencies, setup_s and the ladder rates are
// calibrated: a fixed yardstick kernel is timed next to every call, probe
// and rung, and a measured time is scaled by calNominal over the
// yardstick's time. The slow speed costs the array kernels what it costs
// the yardstick, but the engine-backed ops only 1.3-1.6x, so calibration
// alone overcorrects them; the closed loops and setup_s therefore keep
// only the measurements whose yardstick time is within fastSlack of the
// phase's fastest (its fastQuantile, against outliers), where the
// correction is small. The yardstick is benchmark code and never calls
// the program, so no change to the program can move it.

// calNominal is the yardstick time a calibrated measurement is scaled to:
// about the yardstick's time at full speed on the host above (17.5-20 µs;
// 35-50 µs when slow).
const calNominal = 20 * time.Microsecond

const (
	fastSlack    = 1.25
	fastQuantile = 0.05

	calNodes = 2048 // D_6's node count
	calSteps = 12   // D_6 prefix's communication steps
)

// calibrator is the yardstick: calSteps exchange steps over calNodes
// int64 slots, each slot adding its partner's value under a hypercube
// matching, the loop shape of a schedule's arithmetic floor.
type calibrator struct {
	a, b     []int64
	partners [calSteps][]int32
	sink     int64
}

func newCalibrator() *calibrator {
	c := &calibrator{a: make([]int64, calNodes), b: make([]int64, calNodes)}
	for s := range c.partners {
		p := make([]int32, calNodes)
		for u := range p {
			p[u] = int32(u ^ 1<<(s%11))
		}
		c.partners[s] = p
	}
	return c
}

// sample returns the time of one yardstick pass, run right after an
// untimed one: the measured pass finds its arrays in cache whatever the
// call before it touched, so it reads the host's speed, not cache misses.
func (c *calibrator) sample() time.Duration {
	c.pass()
	t0 := time.Now()
	c.pass()
	return time.Since(t0)
}

func (c *calibrator) pass() {
	a, b := c.a, c.b
	for _, p := range c.partners {
		b := b[:len(p)]
		for u, w := range p {
			b[u] = a[u] + a[w]
		}
		a, b = b, a
	}
	c.sink += a[0]
}

// median returns the median yardstick time of k samples.
func (c *calibrator) median(k int) time.Duration {
	ds := make([]time.Duration, k)
	for i := range ds {
		ds[i] = c.sample()
	}
	slices.Sort(ds)
	return ds[k/2]
}

// fastLimit is the largest yardstick time that still counts as full speed
// among the yardstick times ys of one phase.
func fastLimit(ys []time.Duration) time.Duration {
	s := slices.Clone(ys)
	slices.Sort(s)
	return time.Duration(float64(s[int(fastQuantile*float64(len(s)-1))]) * fastSlack)
}

// calibrate scales d to the reference speed given the yardstick time y
// measured next to it.
func calibrate(d, y time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calNominal) / float64(y))
}

// nearFullSpeed returns the calibrated values whose yardstick time is
// within limit. With fewer than minFast of them it calibrates every value:
// a phase the host ran slow throughout is still reported.
func nearFullSpeed(vals, ys []time.Duration, limit time.Duration, minFast int) []time.Duration {
	var out, all []time.Duration
	for i, v := range vals {
		c := calibrate(v, ys[i])
		all = append(all, c)
		if ys[i] <= limit {
			out = append(out, c)
		}
	}
	if len(out) < minFast {
		return all
	}
	return out
}
