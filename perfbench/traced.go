package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"dualcube"
	"dualcube/internal/collective"
	"dualcube/internal/dcomm"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/monoid"
	"dualcube/internal/prefix"
	"dualcube/internal/serve"
	"dualcube/internal/sortnet"
	"dualcube/internal/topology"
)

// Probe sizes: fixed repetition counts, so a traced run's length does not
// depend on the host.
const (
	probeCalls   = 24    // per-op calls for exact alloc counts
	probePasses  = 200   // executor, floor and lane passes
	probeLookups = 20000 // Compiled cache hits
	probeAddr    = 20    // sweeps of the addressing functions over all nodes
	probeRewrite = 100   // RewriteFT calls
	probeVColl   = 60    // allgather / alltoallv calls
)

// diagRates are the fixed arrival rates whose p99, shed fraction and
// generator lateness the traced run reports; the first is the reference.
var diagRates = []float64{refRate, 6000, 12000}

// traced is the --trace 1 run: the phases once untraced and once with
// spans (their ratio is the tracing overhead), then every layer probed from
// outside through its public functions. It reports the per-layer metrics.
func traced(cfg config, rts *runtimes, ops []*opSpec, ins [][]serveInput, res *result, log io.Writer) error {
	spans := newSpanLog()
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	// 30% of the time each for the untraced and traced passes, the rest
	// for the probes and the diagnostic rates.
	half := cfg.seconds * 0.3
	plain, err := runPhases(ops, ins, cfg, half, nil, false)
	if err != nil {
		return err
	}
	plain.count(res)
	plain.log(log)
	root := spans.begin("perfbench.traced", 0)
	withSpans, err := runPhases(ops, ins, cfg, half, spans, false)
	if err != nil {
		return err
	}
	withSpans.count(res)
	spans.end(root)
	put("trace.overhead_frac.runtime", overhead(plain.runtime, withSpans.runtime), "ratio")
	put("trace.overhead_frac.bulk", overhead(plain.bulk, withSpans.bulk), "ratio")
	put("trace.overhead_frac.serve", withSpans.serve.ref.p50/plain.serve.ref.p50-1, "ratio")

	put("host.cal_us.runtime", us(plain.runtime.calMed), "us")
	put("host.cal_us.bulk", us(plain.bulk.calMed), "us")
	put("host.cal_us.serve", us(plain.serve.cal), "us")

	// The layer probes below time raw, so they are compared with raw p50s.
	p50 := map[string]float64{}
	for _, ph := range []*phaseResult{plain.runtime, plain.bulk} {
		for name, r := range ph.ops {
			p50[name] = quantile(r.lat, 0.5)
		}
	}

	// dualcube: exact per-op allocations, and the Stats every call repeats.
	probe := spans.begin("probe.dualcube", 0)
	for _, o := range ops {
		allocs, kb, err := allocsPerCall(o)
		if err != nil {
			return err
		}
		put("dualcube.allocs_per_op."+o.name, allocs, "count")
		put("dualcube.kb_per_op."+o.name, kb, "KiB")
		st := o.wantStats[0]
		put("machine.cycles."+o.name, float64(st.Cycles), "count")
		put("machine.messages."+o.name, float64(st.Messages), "count")
	}
	spans.end(probe)

	// dcomm and machine: cache lookup, fault rewrite, the executor with a
	// null kernel, and the arithmetic floor over the same partner tables.
	probe = spans.begin("probe.dcomm+machine", 0)
	for _, o := range ops {
		if o.sched == nil {
			continue
		}
		var lookup float64
		if o.name != "degraded_prefix" {
			lookup = lookupNS(o, spans, probe)
			put("dcomm.lookup_ns."+o.name, lookup, "ns")
		} else {
			lookup = res.Metrics["dcomm.lookup_ns.prefix"].Value
		}
		null, err := nullPass(o.sched, o.cfg, spans, probe, o.name)
		if err != nil {
			return err
		}
		floor := floorPass(o.sched, spans, probe, o.name)
		put("machine.null_pass_us."+o.name, null, "us")
		put("machine.x_floor."+o.name, p50[o.name]/floor, "ratio")
		put(o.pkg+".self_us."+o.name, p50[o.name]-null-lookup/1e3, "us")
		fmt.Fprintf(log, "layer %-16s p50=%8.1fus null=%7.1fus floor=%6.1fus lookup=%5.0fns\n", o.name, p50[o.name], null, floor, lookup)
	}
	rw, err := rewriteUS(rts, spans, probe)
	if err != nil {
		return err
	}
	put("dcomm.rewrite_ft_us", rw, "us")
	pool, err := poolNullPass(rts, spans, probe)
	if err != nil {
		return err
	}
	put("machine.pool_null_pass_us.sortlarge", pool, "us")
	spans.end(probe)

	// topology: addressing calls over all nodes.
	probe = spans.begin("probe.topology", 0)
	put("topology.addr_ns.dualcube", addrNS(rts.d6.Comm(), spans, probe), "ns")
	put("topology.addr_ns.zcube", addrNS(rts.z6.Comm(), spans, probe), "ns")
	spans.end(probe)

	// collective: the two halves of samplesort, and computed payload bytes.
	probe = spans.begin("probe.collective", 0)
	ag, a2av, err := sampleSortHalves(cfg.seed, spans, probe)
	if err != nil {
		return err
	}
	put("collective.allgather_p50_us", ag, "us")
	put("collective.alltoallv_p50_us", a2av, "us")
	put("samplesort.self_us.samplesort", p50["samplesort"]-ag-a2av, "us")
	for _, o := range ops {
		if o.bytes != 0 {
			put("collective.bytes_moved."+o.name, float64(o.bytes), "bytes")
		}
	}
	spans.end(probe)

	// serve: handler vs Submit at the reference rate, one lane pass per op
	// at the observed mean batch, and the fixed diagnostic rates.
	probe = spans.begin("probe.serve", 0)
	if err := serveLayers(cfg, ins, plain.serve.ref, put, spans, probe, res); err != nil {
		return err
	}
	spans.end(probe)
	put("host.timer_slack_us", timerSlack(), "us")

	path, err := spans.write(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "spans: %s\n", path)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// overhead is the median over a phase's ops of traced p50 / untraced p50,
// minus one.
func overhead(plain, traced *phaseResult) float64 {
	var ratios []float64
	for name, r := range plain.ops {
		ratios = append(ratios, quantile(traced.ops[name].norm, 0.5)/quantile(r.norm, 0.5))
	}
	return median(ratios) - 1
}

// allocsPerCall counts heap allocations and bytes of one call the way
// testing.AllocsPerRun does: one warm-up call, then the mean of probeCalls
// calls (bench already runs at one P).
func allocsPerCall(o *opSpec) (allocs, kb float64, err error) {
	if _, err := o.call(0); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probeCalls; i++ {
		if _, err := o.call(i % len(o.wantStats)); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	allocs = float64((after.Mallocs - before.Mallocs) / probeCalls)
	kb = float64(after.TotalAlloc-before.TotalAlloc) / probeCalls / 1024
	return allocs, kb, nil
}

// lookupNS times a cache hit of the op's compiled schedule.
func lookupNS(o *opSpec, spans *spanLog, parent int) float64 {
	id := spans.begin("dcomm.Compiled."+o.name, parent)
	t0 := time.Now()
	for i := 0; i < probeLookups; i++ {
		if _, err := dcomm.Compiled(o.comm, o.dop); err != nil {
			panic(err) // compiled at set-up; a failure here is a bug
		}
	}
	el := time.Since(t0)
	spans.end(id)
	return float64(el.Nanoseconds()) / probeLookups
}

// nullKernel exchanges on every communication step and does nothing else,
// so a RunDirect pass with it is pure executor overhead.
type nullKernel struct{}

func (nullKernel) Produce(*machine.DirectCtx, int, int) (machine.DirectRole, int64) {
	return machine.DirectExchange, 0
}
func (nullKernel) Absorb(*machine.DirectCtx, int, int, int64) {}
func (nullKernel) Local(*machine.DirectCtx, int, int)         {}

// nullPass is the median RunDirect pass over sch with the null kernel, µs.
func nullPass(sch *machine.Schedule, cfg machine.Config, spans *spanLog, parent int, name string) (float64, error) {
	ds := make([]time.Duration, probePasses)
	id := spans.begin("machine.RunDirect.null."+name, parent)
	defer spans.end(id)
	for i := range ds {
		t0 := time.Now()
		if _, err := machine.RunDirect[int64](sch, cfg, nullKernel{}); err != nil {
			return 0, fmt.Errorf("null pass %s: %w", name, err)
		}
		ds[i] = time.Since(t0)
	}
	return quantile(ds, 0.5), nil
}

// floorPass is the arithmetic floor of sch, µs: its partner tables run as
// plain array loops, one add per node per step.
func floorPass(sch *machine.Schedule, spans *spanLog, parent int, name string) float64 {
	n := sch.Topology().Nodes()
	a, b := make([]int64, n), make([]int64, n)
	ds := make([]time.Duration, probePasses)
	id := spans.begin("machine.floor."+name, parent)
	defer spans.end(id)
	for i := range ds {
		t0 := time.Now()
		for k := range sch.Steps {
			s := &sch.Steps[k]
			if s.Kind == machine.StepLocalCombine {
				for u := range a {
					a[u]++
				}
				continue
			}
			p := s.Partners()
			b := b[:len(p)]
			for u, w := range p {
				b[u] = a[u] + a[w]
			}
			a, b = b, a
		}
		ds[i] = time.Since(t0)
	}
	sink += a[0]
	return quantile(ds, 0.5)
}

var sink int64

// rewriteUS times the fault rewrite each degraded call performs: the fault
// view plus RewriteFT of the compiled prefix schedule, µs.
func rewriteUS(rts *runtimes, spans *spanLog, parent int) (float64, error) {
	d := rts.d6.Comm().(*topology.DualCube)
	base, err := dcomm.Compiled(d, dcomm.OpPrefix)
	if err != nil {
		return 0, err
	}
	ds := make([]time.Duration, probeRewrite)
	id := spans.begin("dcomm.RewriteFT", parent)
	defer spans.end(id)
	for i := range ds {
		t0 := time.Now()
		if _, err := dcomm.RewriteFT(base, fault.NewView(d, rts.plan)); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return quantile(ds, 0.5), nil
}

// poolNullPass runs the null kernel over D_4's sort schedule on the
// worker-pool engine, the engine SortLargeOn still runs on, µs.
func poolNullPass(rts *runtimes, spans *spanLog, parent int) (float64, error) {
	sch, err := dcomm.Compiled(rts.d4.Comm(), dcomm.OpDSort)
	if err != nil {
		return 0, err
	}
	ds := make([]time.Duration, probePasses/4)
	id := spans.begin("machine.pool.null.sortlarge", parent)
	defer spans.end(id)
	for i := range ds {
		t0 := time.Now()
		eng, err := machine.New[int64](sch.Topology(), machine.Config{Sched: machine.SchedWorkerPool})
		if err != nil {
			return 0, err
		}
		_, err = eng.Run(machine.KernelProgram[int64](sch, nullKernel{}))
		eng.Release()
		if err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return quantile(ds, 0.5), nil
}

// addrNS is ns per addressing call (DataIndex, NodeAtDataIndex, Class,
// LocalID) over every node of c.
func addrNS(c topology.Comm, spans *spanLog, parent int) float64 {
	n := c.Nodes()
	id := spans.begin("topology.addr."+c.Family(), parent)
	t0 := time.Now()
	var acc int
	for r := 0; r < probeAddr; r++ {
		for u := 0; u < n; u++ {
			acc += c.DataIndex(u) + c.NodeAtDataIndex(u) + c.Class(u) + c.LocalID(u)
		}
	}
	el := time.Since(t0)
	spans.end(id)
	sink += int64(acc)
	return float64(el.Nanoseconds()) / float64(4*probeAddr*n)
}

// sampleSortHalves times samplesort's two collectives on inputs shaped the
// way SampleSortOn builds them: P-1 regular samples per node for the
// all-gather, and every node's sorted chunk cut into P buckets for the
// all-to-all-v. µs medians.
func sampleSortHalves(seed uint64, spans *spanLog, parent int) (ag, a2av float64, err error) {
	P := 1 << (2*bulkOrder - 1)
	keys := randInts(rand.New(rand.NewPCG(seed, 3)), chunkK*P)
	samples := make([][]int64, P)
	buckets := make([][][]int64, P)
	for i := 0; i < P; i++ {
		chunk := sortedCopy(keys[i*chunkK:(i+1)*chunkK], dualcube.Ascending)
		for t := 1; t < P; t++ {
			samples[i] = append(samples[i], chunk[t*chunkK/P])
		}
		// Uniform keys: bucket b of a chunk is about one key wide.
		buckets[i] = make([][]int64, P)
		for b := 0; b < P; b++ {
			lo, hi := b*chunkK/P, (b+1)*chunkK/P
			buckets[i][b] = chunk[lo:hi]
		}
	}
	agDs := make([]time.Duration, probeVColl)
	a2Ds := make([]time.Duration, probeVColl)
	id := spans.begin("collective.samplesort_halves", parent)
	defer spans.end(id)
	for i := 0; i < probeVColl; i++ {
		t0 := time.Now()
		if _, _, err := collective.AllGather(bulkOrder, samples); err != nil {
			return 0, 0, err
		}
		agDs[i] = time.Since(t0)
		t0 = time.Now()
		if _, _, err := collective.AllToAllV(bulkOrder, buckets); err != nil {
			return 0, 0, err
		}
		a2Ds[i] = time.Since(t0)
	}
	return quantile(agDs, 0.5), quantile(a2Ds, 0.5), nil
}

// serveLayers measures the serving path layer by layer at the reference
// rate: ServeHTTP (from the plain pass's reference rung), Server.Submit
// alone, one lane pass per op through dcomm.Execute at the observed mean
// batch, and the fixed diagnostic rates.
func serveLayers(cfg config, ins [][]serveInput, ref *rungResult, put func(string, float64, string), spans *spanLog, parent int, res *result) error {
	srv, err := serve.New(serve.Config{Orders: []int{serveOrder}})
	if err != nil {
		return err
	}
	defer srv.Close()

	handler := quantile(ref.handler, 0.5)
	submit, sent, failed := submitLoop(srv, ins, refRate, time.Duration(cfg.seconds*0.06*float64(time.Second)), spans, parent)
	res.Attempted += sent
	res.Failed += failed
	put("serve.handler_p50_us", handler, "us")
	put("serve.submit_p50_us", submit, "us")
	put("serve.codec_us", handler-submit, "us")

	d, err := topology.Shared(serveOrder)
	if err != nil {
		return err
	}
	var passSum float64
	for oi, op := range serveOps {
		k := int(ref.batch[op] + 0.5)
		if k < 1 {
			k = 1
		}
		us, err := lanePass(d, op, ins[oi], k, spans, parent)
		if err != nil {
			return err
		}
		put("serve.pass_us."+op.String(), us, "us")
		put("serve.batch_mean."+op.String(), ref.batch[op], "count")
		passSum += us
	}
	put("serve.wait_us", submit-passSum/float64(len(serveOps)), "us")

	h := serve.Handler(srv)
	for _, rate := range diagRates {
		runtime.GC()
		id := spans.begin(fmt.Sprintf("serve.rate.%.0f", rate), parent)
		r := openLoop(h, ins, rate, time.Duration(cfg.seconds*0.03*float64(time.Second)), nil)
		spans.end(id)
		res.Attempted += r.sent
		res.Failed += r.failed
		tag := fmt.Sprintf("r%.0f", rate)
		put("serve.p99_us."+tag, r.p99, "us")
		put("serve.rejected_frac."+tag, float64(r.rejected)/float64(r.sent), "ratio")
		put("serve.gen_late_p99_us."+tag, r.lateP99, "us")
	}
	return nil
}

// submitLoop is the reference-rate open loop calling Server.Submit
// directly, without HTTP or JSON. It returns the median Submit time in µs,
// the requests sent and the requests failed.
func submitLoop(srv *serve.Server, ins [][]serveInput, rate float64, dur time.Duration, spans *spanLog, parent int) (float64, int, int) {
	total := int(rate * dur.Seconds())
	ds := make([]time.Duration, total)
	errs := make([]error, total)
	interval := float64(time.Second) / rate
	id := spans.begin("serve.Submit", parent)
	defer spans.end(id)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		if wait := time.Duration(int64(float64(i)*interval) - time.Since(start).Nanoseconds()); wait > 0 {
			time.Sleep(wait)
		}
		in := inputFor(ins, i)
		wg.Add(1)
		go func(i int, in *serveInput) {
			defer wg.Done()
			req := in.req
			t0 := time.Now()
			resp, err := srv.Submit(&req)
			ds[i] = time.Since(t0)
			if err == nil {
				err = equal("submit "+in.op.String(), resp.Data, in.want)
			}
			errs[i] = err
		}(i, in)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	return quantile(ds, 0.5), total, failed
}

// lanePass times one k-lane kernel pass of op at D_4 through dcomm.Execute,
// the call a serve dispatcher makes per batch; µs median.
func lanePass(d *topology.DualCube, op serve.Op, ins []serveInput, k int, spans *spanLog, parent int) (float64, error) {
	n := d.Nodes()
	lanes := machine.NewLanes[int64](n, k)
	in := make([][]int64, k)
	out := make([][]int64, k)
	for l := range in {
		in[l] = ins[l%len(ins)].req.Data
		out[l] = make([]int64, n)
	}
	dop := map[serve.Op]dcomm.Op{serve.OpPrefix: dcomm.OpPrefix, serve.OpAllReduce: dcomm.OpAllReduce, serve.OpSort: dcomm.OpDSort, serve.OpBroadcast: dcomm.OpBroadcast}[op]
	sch, err := dcomm.Compiled(d, dop)
	if err != nil {
		return 0, err
	}
	ds := make([]time.Duration, probePasses)
	id := spans.begin("dcomm.Execute.lanes."+op.String(), parent)
	defer spans.end(id)
	for i := range ds {
		var kern machine.DirectKernel[[]int64]
		switch op {
		case serve.OpPrefix:
			kern = prefix.NewLaneKernel(d, monoid.Sum[int64](), true, lanes, in, out)
		case serve.OpAllReduce:
			kern = collective.NewLaneAllReduceKernel(d, monoid.Sum[int64](), lanes, in, out)
		case serve.OpSort:
			ords := make([]sortnet.Order, k)
			kern, err = sortnet.NewLaneSortKernel(d, lanes, in, func(a, b int64) bool { return a < b }, ords)
			if err != nil {
				return 0, err
			}
		case serve.OpBroadcast:
			values := make([]int64, k)
			kern = collective.NewLaneBroadcastKernel(d, ins[0].req.Root, lanes, values)
		}
		t0 := time.Now()
		if _, err := dcomm.Execute(sch, machine.Config{}, kern); err != nil {
			return 0, fmt.Errorf("lane pass %s: %w", op, err)
		}
		ds[i] = time.Since(t0)
	}
	return quantile(ds, 0.5), nil
}
