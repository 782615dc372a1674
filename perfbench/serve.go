package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"dualcube/internal/serve"
)

// Serving workload settings. The server runs the default serve.Config on
// order 4; requests go through serve.Handler in process, one goroutine per
// in-flight request and no sockets, so batches can fill the way they would
// behind many independent clients.
const (
	serveOrder = 4
	// latencyLimit is the p99 (and generator p99 lateness) a ladder rate
	// must meet to count towards serve_max_rps. Far above the ~1 ms
	// batch-window floor and the 20-50 ms stalls a shared host inflicts on
	// any request, far below the seconds a saturated queue reaches.
	latencyLimit = 100 * time.Millisecond
)

// refRate is the reference arrival rate for serve_p50_us, well below the
// knee.
const refRate = 2000.0

// ladder is the fixed rate ladder serve_max_rps is read from: 4k to 64k
// calibrated requests/s in 6% steps, rounded to 250, so the knee is
// resolved to about the run-to-run noise of the host.
var ladder = func() []float64 {
	var out []float64
	for r := 4000.0; r <= 64000; r *= 1.06 {
		out = append(out, float64(int(r/250+0.5)*250))
	}
	return out
}()

// ladderProbes is how many rungs the bisection of the ladder runs.
var ladderProbes = bits.Len(uint(len(ladder)))

var serveOps = []serve.Op{serve.OpPrefix, serve.OpAllReduce, serve.OpSort, serve.OpBroadcast}

// serveInput is one pre-encoded request and its sequential reference.
type serveInput struct {
	op   serve.Op
	path string
	body []byte
	req  serve.Request
	want []int64
}

// buildServeInputs makes inputsPer requests per op from seed.
func buildServeInputs(seed uint64) ([][]serveInput, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e77e))
	nodes := 1 << (2*serveOrder - 1)
	out := make([][]serveInput, len(serveOps))
	for oi, op := range serveOps {
		for i := 0; i < inputsPer; i++ {
			in := serveInput{op: op, path: "/v1/" + op.String()}
			in.req = serve.Request{Op: op, N: serveOrder}
			switch op {
			case serve.OpPrefix:
				in.req.Data = randInts(rng, nodes)
				in.want = prefixSums(in.req.Data)
			case serve.OpAllReduce:
				in.req.Data = randInts(rng, nodes)
				in.want = []int64{sum(in.req.Data)}
			case serve.OpSort:
				in.req.Data = randInts(rng, nodes)
				in.req.Desc = i%2 == 1
				in.want = sortedCopy(in.req.Data, orderOf(i))
			case serve.OpBroadcast:
				in.req.Root = rng.IntN(nodes)
				in.req.Value = rng.Int64()
				in.want = []int64{in.req.Value}
			}
			body, err := json.Marshal(in.req)
			if err != nil {
				return nil, err
			}
			in.body = body
			out[oi] = append(out[oi], in)
		}
	}
	return out, nil
}

// inputFor is request i's input: ops round-robin, inputs cycling.
func inputFor(ins [][]serveInput, i int) *serveInput {
	return &ins[i%len(ins)][(i/len(ins))%inputsPer]
}

// reqResult is one request of an open-loop rung, in ns since the rung
// started.
type reqResult struct {
	due, sent, done int64
	code            int
	body            []byte
}

// rungResult summarises one open-loop rate.
type rungResult struct {
	rate     float64 // offered
	nominal  float64 // the calibrated ladder rate it stands for; 0 off the ladder
	sent     int
	failed   int // wrong result or an error status other than 429
	rejected int // 429: admission control shed the request
	p50, p99 float64
	lateP99  float64         // generator lateness, µs
	batch    [4]float64      // mean batch per serve.Op
	handler  []time.Duration // ServeHTTP time of each request, from its send
	firstErr error
	duration time.Duration
}

// ok reports whether the rung meets serve_max_rps's three conditions: p99
// under the limit, nothing failed or shed, and a generator that kept up.
func (r *rungResult) ok() bool {
	lim := float64(latencyLimit / time.Microsecond)
	return r.failed == 0 && r.rejected == 0 && r.p99 <= lim && r.lateP99 <= lim
}

// openLoop sends requests at rate for dur through h, one goroutine per
// request, each timed from its due time. It waits for every request.
func openLoop(h http.Handler, ins [][]serveInput, rate float64, dur time.Duration, spans *spanLog) *rungResult {
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	res := make([]reqResult, total)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		due := int64(float64(i) * interval)
		if wait := time.Duration(due - time.Since(start).Nanoseconds()); wait > 0 {
			time.Sleep(wait)
		}
		res[i].due = due
		res[i].sent = time.Since(start).Nanoseconds()
		in := inputFor(ins, i)
		wg.Add(1)
		go func(r *reqResult, in *serveInput) {
			defer wg.Done()
			var id int
			if spans != nil {
				id = spans.begin("serve.request."+in.op.String(), 0)
			}
			req := httptest.NewRequest(http.MethodPost, in.path, bytes.NewReader(in.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			r.done = time.Since(start).Nanoseconds()
			if spans != nil {
				spans.end(id)
			}
			r.code = rec.Code
			r.body = rec.Body.Bytes()
		}(&res[i], in)
	}
	wg.Wait()
	out := &rungResult{rate: rate, sent: total, duration: time.Since(start)}
	lat := make([]time.Duration, 0, total)
	late := make([]time.Duration, 0, total)
	out.handler = make([]time.Duration, 0, total)
	var batchSum, batchN [4]float64
	for i := range res {
		r := &res[i]
		lat = append(lat, time.Duration(r.done-r.due))
		late = append(late, time.Duration(r.sent-r.due))
		out.handler = append(out.handler, time.Duration(r.done-r.sent))
		in := inputFor(ins, i)
		switch {
		case r.code == http.StatusTooManyRequests:
			out.rejected++
			continue
		case r.code != http.StatusOK:
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("serve %s: status %d: %s", in.op, r.code, bytes.TrimSpace(r.body))
			}
			continue
		}
		var resp serve.Response
		err := json.Unmarshal(r.body, &resp)
		if err == nil {
			err = equal("serve "+in.op.String(), resp.Data, in.want)
		}
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
			continue
		}
		batchSum[in.op] += float64(resp.Batch)
		batchN[in.op]++
	}
	for op := range batchSum {
		if batchN[op] > 0 {
			out.batch[op] = batchSum[op] / batchN[op]
		}
	}
	out.p50 = quantile(lat, 0.5)
	out.p99 = quantile(lat, 0.99)
	out.lateP99 = quantile(late, 0.99)
	return out
}

// servePhase is the serving workload: the reference rate, then a
// bisection of the ladder for the highest rate that is ok, assuming a rate
// above a failing one fails too.
type servePhase struct {
	refs   []*rungResult // the reference rate's rungs
	ref    *rungResult   // the one with the lowest median
	rungs  []*rungResult // the ladder's
	maxRPS float64
	cal    time.Duration // median yardstick time before the rungs
}

// A shared host's stalls only ever add latency and fail rungs, so the
// serving metrics read the least disturbed of several short rungs: the
// reference rate runs as refRungs rungs and reports the lowest median, and
// a ladder rate is ok when one of up to ladderTries rungs meets the
// conditions. A rate past the knee fails every try.
const (
	refRungs    = 3
	ladderTries = 3
)

// runServe runs the reference rate for refDur and, when voteDur > 0, the
// ladder bisection with rungs of voteDur. Every rung starts from a drained
// server and a collected heap. Ladder rates are calibrated (calib.go): a
// rung offers its ladder rate scaled by calNominal over the yardstick time
// measured just before it. The reference rate is offered as is: its
// latency is set by the timer wake-up, not by CPU speed.
func runServe(ins [][]serveInput, refDur, voteDur time.Duration, spans *spanLog) (*servePhase, error) {
	srv, err := serve.New(serve.Config{Orders: []int{serveOrder}})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := serve.Handler(srv)
	ph := &servePhase{}
	cal := newCalibrator()
	ys := []time.Duration{cal.median(21)}
	for i := 0; i < refRungs; i++ {
		runtime.GC()
		r := openLoop(h, ins, refRate, refDur/refRungs, spans)
		ph.refs = append(ph.refs, r)
		if ph.ref == nil || r.p50 < ph.ref.p50 {
			ph.ref = r
		}
	}
	if voteDur > 0 {
		lo, hi := -1, len(ladder) // ladder[lo] is ok, ladder[hi] is not
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			ok := false
			for try := 0; try < ladderTries && !ok; try++ {
				runtime.GC()
				y := cal.median(21)
				ys = append(ys, y)
				r := openLoop(h, ins, ladder[mid]*float64(calNominal)/float64(y), voteDur, nil)
				r.nominal = ladder[mid]
				ph.rungs = append(ph.rungs, r)
				ok = r.ok()
			}
			if ok {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo >= 0 {
			ph.maxRPS = ladder[lo]
		}
	}
	ph.cal = time.Duration(quantile(ys, 0.5) * 1e3)
	return ph, nil
}
