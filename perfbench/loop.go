package main

import (
	"runtime"
	"slices"
	"time"
)

// opResult is one op's share of a closed-loop phase.
type opResult struct {
	lat       []time.Duration // call times
	at        []int           // index in the phase's cals of the sample before each call
	norm      []time.Duration // calibrated, near full speed (calib.go)
	attempted int
	failed    int
	firstErr  error
}

// phaseResult is a closed-loop phase: per-op latencies and the heap the
// phase allocated, counted per call. A phase runs in slices (run) and is
// then finished against a full-speed limit (finish).
type phaseResult struct {
	order    []*opSpec
	ops      map[string]*opResult
	cal      *calibrator
	cals     []time.Duration // yardstick samples: before each call, after each slice
	calls    int
	alloc    uint64 // TotalAlloc delta over the slices
	mallocN  uint64 // Mallocs delta over the slices
	duration time.Duration

	allocKB  float64       // alloc / calls, in KiB
	mallocs  float64       // mallocN / calls
	calMed   time.Duration // median yardstick time over the phase
	fastFrac float64       // share of the calls made near full speed
}

func newPhase(ops []*opSpec) *phaseResult {
	ph := &phaseResult{order: ops, ops: make(map[string]*opResult, len(ops)), cal: newCalibrator()}
	for _, o := range ops {
		ph.ops[o.name] = &opResult{lat: make([]time.Duration, 0, 1024), at: make([]int, 0, 1024)}
	}
	return ph
}

// closedLoop runs ops as one phase of dur and finishes it against its own
// full-speed limit.
func closedLoop(ops []*opSpec, dur time.Duration, tamper string, spans *spanLog) *phaseResult {
	ph := newPhase(ops)
	ph.run(dur, tamper, spans)
	ph.finish(fastLimit(ph.cals))
	return ph
}

// run is one slice of the phase: one caller round-robin over the ops until
// dur has passed, stopping only at round boundaries so every op gets the
// same number of calls. Each call is timed alone, between two yardstick
// samples that calibrate it; its output and Stats are checked after the
// clock stops. tamper names an op whose outputs are damaged before the
// check (tests prove with it that a wrong result counts as failed); spans,
// when non-nil, records one span per call.
func (ph *phaseResult) run(dur time.Duration, tamper string, spans *spanLog) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, o := range ph.order {
			r := ph.ops[o.name]
			i := r.attempted % len(o.wantStats)
			var id int
			if spans != nil {
				id = spans.begin("dualcube."+o.name, 0)
			}
			r.at = append(r.at, len(ph.cals))
			ph.cals = append(ph.cals, ph.cal.sample())
			t0 := time.Now()
			st, err := o.call(i)
			dt := time.Since(t0)
			if spans != nil {
				spans.end(id)
			}
			r.attempted++
			r.lat = append(r.lat, dt)
			if err == nil && o.name == tamper {
				o.corrupt()
			}
			if err == nil {
				err = o.verify(i)
			}
			if err == nil {
				err = o.checkStats(i, st)
			}
			if err != nil {
				r.failed++
				if r.firstErr == nil {
					r.firstErr = err
				}
			}
		}
		ph.calls += len(ph.order)
	}
	ph.cals = append(ph.cals, ph.cal.sample())
	ph.duration += time.Since(start)
	runtime.ReadMemStats(&after)
	ph.alloc += after.TotalAlloc - before.TotalAlloc
	ph.mallocN += after.Mallocs - before.Mallocs
}

// finish calibrates each op's calls made near full speed, that is with a
// yardstick time within limit (calib.go), and totals the phase.
func (ph *phaseResult) finish(limit time.Duration) {
	fast := 0
	for _, r := range ph.ops {
		ys := make([]time.Duration, len(r.lat))
		for k, j := range r.at {
			ys[k] = (ph.cals[j] + ph.cals[j+1]) / 2
		}
		r.norm = nearFullSpeed(r.lat, ys, limit, 10)
		fast += len(r.norm)
	}
	ph.calMed = time.Duration(quantile(ph.cals, 0.5) * 1e3)
	ph.fastFrac = float64(fast) / float64(ph.calls)
	ph.allocKB = float64(ph.alloc) / 1024 / float64(ph.calls)
	ph.mallocs = float64(ph.mallocN) / float64(ph.calls)
}

// quantile returns the q-quantile of ds in microseconds (nearest rank on
// the sorted samples; the median of an even count is the mean of the two
// middle samples).
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	if q == 0.5 && len(s)%2 == 0 {
		return float64(s[len(s)/2-1]+s[len(s)/2]) / 2 / 1e3
	}
	idx := int(q * float64(len(s)-1))
	return float64(s[idx]) / 1e3
}
