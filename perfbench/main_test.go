package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dualcube/internal/serve"
)

func TestMain(m *testing.M) {
	// measureSetup re-executes the running binary as the set-up probe; in a
	// test that binary is the test executable.
	if len(os.Args) == 2 && os.Args[1] == "-setup-probe" {
		os.Exit(setupProbe(os.Stdout))
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// checkMetrics requires exactly the declared metrics, each with its unit.
func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s in %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

// A short run of each workload emits every declared metric with its unit,
// untraced and traced, and no operation fails.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 2, trace: trace, setupRuns: 1, traceDir: t.TempDir()}
			res, err := bench(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				checkMetrics(t, res, layers)
			} else {
				checkMetrics(t, res, e2e)
			}
		}
	}
}

func preparedOps(t *testing.T) []*opSpec {
	t.Helper()
	rts, err := newRuntimes()
	if err != nil {
		t.Fatal(err)
	}
	ops := buildOps(rts, 11, 2)
	if err := prepare(rts, ops, 2); err != nil {
		t.Fatal(err)
	}
	return ops
}

// Every op's verification rejects a damaged output and a drifted Stats.
func TestVerificationIsLive(t *testing.T) {
	for _, o := range preparedOps(t) {
		for i := 0; i < 2; i++ {
			st, err := o.call(i)
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			if err := o.verify(i); err != nil {
				t.Fatalf("%s: clean output rejected: %v", o.name, err)
			}
			if err := o.checkStats(i, st); err != nil {
				t.Fatalf("%s: clean stats rejected: %v", o.name, err)
			}
			o.corrupt()
			if o.verify(i) == nil {
				t.Errorf("%s input %d: corrupted output accepted", o.name, i)
			}
			st.Cycles++
			if o.checkStats(i, st) == nil {
				t.Errorf("%s input %d: drifted stats accepted", o.name, i)
			}
		}
	}
}

// A corrupted result inside the timed loop counts as a failed operation
// against the number attempted, and only for the damaged op.
func TestCorruptedResultCountsAsFailure(t *testing.T) {
	ops := preparedOps(t)
	for _, phase := range []string{"runtime", "bulk"} {
		ph := phaseOps(ops, phase)
		target := ph[len(ph)-1].name
		res := closedLoop(ph, 50*time.Millisecond, target, nil)
		for name, r := range res.ops {
			switch {
			case name == target && (r.failed != r.attempted || r.attempted == 0):
				t.Errorf("%s: %d of %d damaged calls counted as failed", name, r.failed, r.attempted)
			case name != target && r.failed != 0:
				t.Errorf("%s: %d clean calls failed: %v", name, r.failed, r.firstErr)
			}
		}
	}
}

// A wrong serving response counts as failed, and a clean one does not.
func TestServeVerificationIsLive(t *testing.T) {
	ins, err := buildServeInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Orders: []int{serveOrder}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := http.Handler(serve.Handler(srv))
	if r := openLoop(h, ins, 400, 100*time.Millisecond, nil); r.failed != 0 || r.rejected != 0 {
		t.Fatalf("clean rung: failed=%d rejected=%d: %v", r.failed, r.rejected, r.firstErr)
	}
	ins[0][0].want = append([]int64(nil), ins[0][0].want...)
	ins[0][0].want[3] ^= 1 << 40
	r := openLoop(h, ins, 400, 100*time.Millisecond, nil)
	if r.failed == 0 || !strings.Contains(r.firstErr.Error(), "prefix") {
		t.Fatalf("damaged reference: failed=%d err=%v", r.failed, r.firstErr)
	}
}

// The ladder is strictly increasing, so its bisection is well defined.
func TestLadderIncreases(t *testing.T) {
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			t.Fatalf("ladder[%d] = %v after %v", i, ladder[i], ladder[i-1])
		}
	}
	if ladder[0] < refRate {
		t.Fatalf("ladder starts at %v, below the reference rate %v", ladder[0], refRate)
	}
}
