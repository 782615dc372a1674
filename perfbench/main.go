// Command perfbench is the repository benchmark. One process runs one
// workload for a fixed time, checks every output against a sequential
// reference and the paper's Stats, and prints its metrics as the last line
// of standard output. From the repository root:
//
//	bash perfbench/run.sh --workload runtime --seed 1 --seconds 30 --trace 0
//
// Every run measures all three phases — the warm-Runtime closed loop, the
// bulk-collective closed loop and the open-loop serving phase with its
// rate ladder — so every end-to-end metric is reported by every workload;
// the workload chooses which phase gets most of the time. With --trace 1
// the run instead reports the per-layer metrics: each layer is timed from
// outside through its public functions, and the phases are run once
// plainly and once with spans to measure the tracing overhead. LAYERS.md
// maps every per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"dualcube/internal/serve"
)

var workloads = []string{"runtime", "bulk", "serve"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setupRuns is how many fresh processes measure setup_s.
	setupRuns int
	// traceDir receives the traced run's spans.
	traceDir string
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == "-setup-probe" {
		os.Exit(setupProbe(os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seed int64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, cfg.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloads, ", "))
		return 2
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.seed = uint64(seed)
	cfg.trace = trace == 1
	cfg.setupRuns = 15
	cfg.traceDir = ".bench_build/traces"

	res, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := map[string]any{
		"workload": cfg.workload, "seed": seed, "seconds": cfg.seconds, "trace": trace,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": benchProcs,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "timer_slack_us": timerSlack(),
	}
	if err := writeJSONLine(stdout, env); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// shares splits the measured time between the phases: the workload's own
// phase gets most of it, the other two enough to report their metrics.
func shares(workload string) map[string]float64 {
	s := map[string]float64{"runtime": 0.2, "bulk": 0.2, "serve": 0.2}
	s[workload] = 0.6
	return s
}

// e2e is everything an untraced pass over the three phases measures.
type e2e struct {
	runtime, bulk *phaseResult
	serve         *servePhase
}

// ladderShare is the part of a run the serve_max_rps bisection takes, the
// same in every workload so the metric is equally steady in all of them.
const ladderShare = 0.25

// sliceDur is how long the two closed loops take turns: they alternate in
// slices, so both sample the same spells of host speed (calib.go).
const sliceDur = 400 * time.Millisecond

// runPhases runs the three phases in seconds; withLadder adds the
// serve_max_rps bisection, and the rest of the time is split by shares.
func runPhases(ops []*opSpec, ins [][]serveInput, cfg config, seconds float64, spans *spanLog, withLadder bool) (*e2e, error) {
	var voteDur time.Duration
	if withLadder {
		ladderSec := ladderShare * seconds
		seconds -= ladderSec
		// Budgeted for two tries per probe; a probe past the knee takes
		// ladderTries, one below it often a single try.
		voteDur = time.Duration(ladderSec / float64(2*ladderProbes) * float64(time.Second))
	}
	sh := shares(cfg.workload)
	closedShare := sh["runtime"] + sh["bulk"]
	closed := time.Duration(closedShare * seconds * float64(time.Second))
	rtSlice := time.Duration(float64(sliceDur) * sh["runtime"] / closedShare)
	out := e2e{runtime: newPhase(phaseOps(ops, "runtime")), bulk: newPhase(phaseOps(ops, "bulk"))}
	runtime.GC()
	for out.runtime.duration+out.bulk.duration < closed {
		out.runtime.run(rtSlice, "", spans)
		out.bulk.run(sliceDur-rtSlice, "", spans)
	}
	limit := fastLimit(append(slices.Clone(out.runtime.cals), out.bulk.cals...))
	out.runtime.finish(limit)
	out.bulk.finish(limit)
	ph, err := runServe(ins, time.Duration(sh["serve"]*seconds*float64(time.Second)), voteDur, spans)
	if err != nil {
		return nil, err
	}
	out.serve = ph
	return &out, nil
}

func phaseOps(ops []*opSpec, phase string) []*opSpec {
	var out []*opSpec
	for _, o := range ops {
		if o.phase == phase {
			out = append(out, o)
		}
	}
	return out
}

// benchProcs is the GOMAXPROCS every phase and set-up probe runs at. On
// the two-vCPU host the bounds were set on, a second P lets the GC, the
// scheduler and the engines' workers run on the other vCPU; even
// calibrated (calib.go), the engine-backed ops then spread 0.15-0.23 over
// five seeds and setup_s 0.2, against 0.01-0.05 at one P. One P stays
// within nproc on any host.
const benchProcs = 1

// bench runs one invocation.
func bench(cfg config, log io.Writer) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	var setup float64
	if !cfg.trace {
		// Before this process warms anything, so the probes run alone.
		var err error
		if setup, err = measureSetup(cfg.setupRuns); err != nil {
			return nil, err
		}
	}
	rts, err := newRuntimes()
	if err != nil {
		return nil, err
	}
	ops := buildOps(rts, cfg.seed, inputsPer)
	if err := prepare(rts, ops, inputsPer); err != nil {
		return nil, err
	}
	ins, err := buildServeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: make(map[string]metric)}
	if cfg.trace {
		if err := traced(cfg, rts, ops, ins, res, log); err != nil {
			return nil, err
		}
	} else {
		m, err := runPhases(ops, ins, cfg, cfg.seconds, nil, true)
		if err != nil {
			return nil, err
		}
		m.report(res)
		m.log(log)
		res.Metrics["setup_s"] = metric{setup, "s"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// report adds the end-to-end metrics and the attempt/failure counts.
func (m *e2e) report(res *result) {
	for _, ph := range []*phaseResult{m.runtime, m.bulk} {
		for name, r := range ph.ops {
			res.Metrics[name+"_p50_us"] = metric{quantile(r.norm, 0.5), "us"}
		}
	}
	res.Metrics["alloc_kb_per_op"] = metric{(m.runtime.allocKB + m.bulk.allocKB) / 2, "KiB"}
	res.Metrics["serve_p50_us"] = metric{m.serve.ref.p50, "us"}
	res.Metrics["serve_max_rps"] = metric{m.serve.maxRPS, "1/s"}
	m.count(res)
}

// count adds every checked operation to attempted and every wrong result,
// error or (at the reference rate) shed request to failed. Requests the
// ladder sheds above the knee are how serve_max_rps finds the knee, not
// failures.
func (m *e2e) count(res *result) {
	for _, ph := range []*phaseResult{m.runtime, m.bulk} {
		for _, r := range ph.ops {
			res.Attempted += r.attempted
			res.Failed += r.failed
		}
	}
	for _, r := range m.serve.refs {
		res.Attempted += r.sent
		res.Failed += r.failed + r.rejected
	}
	for _, r := range m.serve.rungs {
		res.Attempted += r.sent
		res.Failed += r.failed
	}
}

// log writes a human-readable summary of a pass to w.
func (m *e2e) log(w io.Writer) {
	for _, ph := range []*phaseResult{m.runtime, m.bulk} {
		for name, r := range ph.ops {
			fmt.Fprintf(w, "op %-16s n=%-5d kept=%-5d p50=%9.1fus (raw, all calls %9.1fus) p99=%9.1fus failed=%d\n",
				name, len(r.lat), len(r.norm), quantile(r.norm, 0.5), quantile(r.lat, 0.5), quantile(r.norm, 0.99), r.failed)
		}
		fmt.Fprintf(w, "phase %.2fs %.1f KiB/op %.1f mallocs/op yardstick %v, %.0f%% of calls near full speed\n",
			ph.duration.Seconds(), ph.allocKB, ph.mallocs, ph.calMed, 100*ph.fastFrac)
	}
	for _, r := range append(m.serve.refs, m.serve.rungs...) {
		fmt.Fprintf(w, "rate %6.0f (ladder %6.0f) sent=%-6d p50=%8.1fus p99=%8.1fus late99=%8.1fus rejected=%d failed=%d batch=%.1f ok=%v %.2fs\n",
			r.rate, r.nominal, r.sent, r.p50, r.p99, r.lateP99, r.rejected, r.failed, r.batch, r.ok(), r.duration.Seconds())
	}
	if err := m.firstError(); err != nil {
		fmt.Fprintf(w, "first error: %v\n", err)
	}
}

// firstError returns the first verification error of a pass, for the log.
func (m *e2e) firstError() error {
	for _, ph := range []*phaseResult{m.runtime, m.bulk} {
		for _, r := range ph.ops {
			if r.firstErr != nil {
				return r.firstErr
			}
		}
	}
	for _, r := range append(m.serve.refs, m.serve.rungs...) {
		if r.firstErr != nil {
			return r.firstErr
		}
	}
	return nil
}

// measureSetup runs the set-up probe in fresh processes, since every cache
// it fills is process-wide, and returns the calibrated median in seconds
// over the probes the host ran near full speed (calib.go).
func measureSetup(runs int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	vals := make([]time.Duration, 0, runs)
	ys := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		out, err := exec.Command(exe, "-setup-probe").Output()
		if err != nil {
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				return 0, fmt.Errorf("setup probe: %v: %s", err, ee.Stderr)
			}
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		var v, y time.Duration
		if _, err := fmt.Sscan(string(out), &v, &y); err != nil {
			return 0, fmt.Errorf("setup probe output %q: %w", out, err)
		}
		vals = append(vals, v)
		ys = append(ys, y)
	}
	fast := nearFullSpeed(vals, ys, fastLimit(ys), runs/3)
	return quantile(fast, 0.5) / 1e6, nil
}

// setupProbe times a cold start of everything the workloads use: the
// three Runtimes with Warm and the first call of each op, and serve.New
// for the serving workload. Generating the inputs is the benchmark's own
// work and stays off the clock. It prints the set-up time and the
// yardstick time around it, in ns.
func setupProbe(w io.Writer) int {
	runtime.GOMAXPROCS(benchProcs)
	cal := newCalibrator()
	before := cal.median(11)
	el, err := coldSetup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup probe: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%d %d\n", el.Nanoseconds(), ((before + cal.median(11)) / 2).Nanoseconds())
	return 0
}

func coldSetup() (time.Duration, error) {
	t0 := time.Now()
	rts, err := newRuntimes()
	if err != nil {
		return 0, err
	}
	el := time.Since(t0)
	ops := buildOps(rts, 0, 1)
	t0 = time.Now()
	for _, o := range ops {
		if _, err := o.call(0); err != nil {
			return 0, err
		}
	}
	srv, err := serve.New(serve.Config{Orders: []int{serveOrder}})
	if err != nil {
		return 0, err
	}
	srv.Close()
	return el + time.Since(t0), nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// timerSlack measures how late a 200 µs timer wakes, the host property
// that sets the floor of serve_p50_us through the batch window; µs, median
// of 50.
func timerSlack() float64 {
	ds := make([]time.Duration, 50)
	for i := range ds {
		t0 := time.Now()
		t := time.NewTimer(200 * time.Microsecond)
		<-t.C
		ds[i] = time.Since(t0)
	}
	return quantile(ds, 0.5)
}
