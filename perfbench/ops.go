package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"dualcube"
	"dualcube/internal/dcomm"
	"dualcube/internal/fault"
	"dualcube/internal/machine"
	"dualcube/internal/topology"
)

// Workload orders and sizes. D_6 (2048 nodes) stays below RunDirect's
// 4096-node sharding threshold, so a run on two shared cores measures the
// program and not the scheduler; the bulk collectives that carry whole
// payload planes run where a 1 s slice still collects hundreds of samples.
const (
	runtimeOrder = 6
	bulkOrder    = 4
	chunkK       = 16 // keys per node for SampleSortOn and SortLargeOn
	faultCount   = 5  // n-1 link faults on D_6: the most degraded prefix is guaranteed to survive
	// faultSeed fixes the degraded call's fault plan. It is part of the
	// workload, not of its data: a plan drawn from the run seed would move
	// RepairCycles, and with it the degraded latency, from seed to seed.
	faultSeed  = 1
	inputsPer  = 4 // distinct inputs per op; calls cycle through them
	polyMod    = 998244353
	polyLenA   = 64
	polyLenB   = 65 // len(a)+len(b)-1 = 128 = |D_4|
	valueRange = 1 << 20
)

// opSpec is one measured operation: its inputs (generated from the seed),
// the call into the dualcube facade, and the sequential reference and exact
// Stats every output is checked against outside the timed region.
type opSpec struct {
	name  string // metric stem, e.g. "prefix"
	phase string // "runtime" or "bulk"
	pkg   string // kernel package that does the op's work, for <pkg>.self_us
	// comm and dop name the op's compiled schedule; sched is that schedule
	// (fault-rewritten for the degraded call) and cfg the executor config
	// the op runs it under. sched is nil for the ops that still run on a
	// simulator engine (SortLargeOn, PolyMulModOn) or compose several
	// schedules (SampleSortOn).
	comm  topology.Comm
	dop   dcomm.Op
	sched *machine.Schedule
	cfg   machine.Config
	// bytes is the payload one call carries, computed from the input
	// sizes rather than measured; 0 for the ops it is not reported for.
	bytes int

	call func(i int) (dualcube.Stats, error)
	// verify compares the last call's output on input i to the reference.
	verify func(i int) error
	// corrupt damages the last output in place; tests use it to prove
	// verify is live.
	corrupt func()
	// wantStats is the exact Stats of input i, fixed at set-up.
	wantStats []dualcube.Stats
}

// checkStats reports Stats drift from the set-up value of input i.
func (o *opSpec) checkStats(i int, st dualcube.Stats) error {
	if st != o.wantStats[i] {
		return fmt.Errorf("%s: stats %+v, want %+v", o.name, st, o.wantStats[i])
	}
	return nil
}

// runtimes holds the warm handles the workloads call through.
type runtimes struct {
	d6, z6, d4 *dualcube.Runtime
	plan       *dualcube.FaultPlan
}

func newRuntimes() (*runtimes, error) {
	var r runtimes
	var err error
	if r.d6, err = dualcube.NewRuntime(runtimeOrder); err != nil {
		return nil, err
	}
	if r.z6, err = dualcube.NewRuntimeOn("zcube", runtimeOrder); err != nil {
		return nil, err
	}
	if r.d4, err = dualcube.NewRuntime(bulkOrder); err != nil {
		return nil, err
	}
	for _, rt := range []*dualcube.Runtime{r.d6, r.z6, r.d4} {
		if err := rt.Warm(); err != nil {
			return nil, err
		}
	}
	if r.plan, err = dualcube.RandomFaultPlan(runtimeOrder, faultCount, faultSeed); err != nil {
		return nil, err
	}
	return &r, nil
}

// buildOps generates every op's inputs and references from seed, inputs
// per op, without calling the program.
func buildOps(rts *runtimes, seed uint64, inputs int) []*opSpec {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	d6, z6, d4 := rts.d6, rts.z6, rts.d4
	n6 := d6.Nodes()
	n4 := d4.Nodes()
	k := chunkK

	prefixOp := func(name string, rt *dualcube.Runtime) *opSpec {
		ins := make([][]int64, inputs)
		wants := make([][]int64, inputs)
		for i := range ins {
			ins[i] = randInts(rng, n6)
			wants[i] = prefixSums(ins[i])
		}
		var out []int64
		return &opSpec{
			name: name, phase: "runtime", pkg: "prefix", comm: rt.Comm(), dop: dcomm.OpPrefix,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.PrefixOn(rt, ins[i])
				return
			},
			verify:  func(i int) error { return equal(name, out, wants[i]) },
			corrupt: func() { out[len(out)/2] ^= 1 << 40 },
		}
	}

	var ops []*opSpec
	ops = append(ops, prefixOp("prefix", d6))

	{
		ins := make([][]int64, inputs)
		totals := make([]int64, inputs)
		for i := range ins {
			ins[i] = randInts(rng, n6)
			totals[i] = sum(ins[i])
		}
		var out []int64
		ops = append(ops, &opSpec{
			name: "allreduce", phase: "runtime", pkg: "collective", comm: d6.Comm(), dop: dcomm.OpAllReduce,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.AllReduceSumOn(d6, ins[i])
				return
			},
			verify:  func(i int) error { return allEqual("allreduce", out, n6, totals[i]) },
			corrupt: func() { out[0] ^= 1 << 40 },
		})
	}
	{
		roots := make([]int, inputs)
		values := make([]int64, inputs)
		for i := range roots {
			roots[i] = rng.IntN(n6)
			values[i] = rng.Int64()
		}
		var out []int64
		ops = append(ops, &opSpec{
			name: "broadcast", phase: "runtime", pkg: "collective", comm: d6.Comm(), dop: dcomm.OpBroadcast,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.BroadcastOn(d6, roots[i], values[i])
				return
			},
			verify:  func(i int) error { return allEqual("broadcast", out, n6, values[i]) },
			corrupt: func() { out[n6-1] ^= 1 << 40 },
		})
	}
	{
		ins := make([][]int64, inputs)
		wants := make([][]int64, inputs)
		for i := range ins {
			ins[i] = randInts(rng, n6)
			wants[i] = sortedCopy(ins[i], orderOf(i))
		}
		var out []int64
		ops = append(ops, &opSpec{
			name: "sort", phase: "runtime", pkg: "sortnet", comm: d6.Comm(), dop: dcomm.OpDSort,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.SortOn(d6, ins[i], orderOf(i))
				return
			},
			verify:  func(i int) error { return equal("sort", out, wants[i]) },
			corrupt: func() { out[1] ^= 1 << 40 },
		})
	}
	{
		ins := make([][]int64, inputs)
		wants := make([][]int64, inputs)
		for i := range ins {
			ins[i] = randInts(rng, n6)
			wants[i] = prefixSums(ins[i])
		}
		var out []int64
		plan := rts.plan
		ops = append(ops, &opSpec{
			name: "degraded_prefix", phase: "runtime", pkg: "prefix", comm: d6.Comm(), dop: dcomm.OpPrefix,
			cfg: machine.Config{Faults: plan.Spec()},
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.PrefixDegradedOn(d6, ins[i], plan)
				return
			},
			verify:  func(i int) error { return equal("degraded_prefix", out, wants[i]) },
			corrupt: func() { out[n6-1] ^= 1 << 40 },
		})
	}
	ops = append(ops, prefixOp("zcube_prefix", z6))

	{
		roots := make([]int, inputs)
		ins := make([][]int64, inputs)
		for i := range ins {
			roots[i] = rng.IntN(n6)
			ins[i] = randInts(rng, n6)
		}
		var out []int64
		ops = append(ops, &opSpec{
			name: "gather", phase: "bulk", pkg: "collective", comm: d6.Comm(), dop: dcomm.OpGather,
			bytes: 8 * n6,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.GatherOn(d6, roots[i], ins[i])
				return
			},
			verify:  func(i int) error { return equal("gather", out, ins[i]) },
			corrupt: func() { out[3] ^= 1 << 40 },
		})
	}
	{
		roots := make([]int, inputs)
		ins := make([][]int64, inputs)
		wants := make([][]int64, inputs)
		for i := range ins {
			roots[i] = rng.IntN(n6)
			ins[i] = randInts(rng, n6)
			wants[i] = make([]int64, n6)
			for u := range wants[i] {
				wants[i][u] = ins[i][dataIndex(runtimeOrder, u)]
			}
		}
		var out []int64
		ops = append(ops, &opSpec{
			name: "scatter", phase: "bulk", pkg: "collective", comm: d6.Comm(), dop: dcomm.OpScatter,
			bytes: 8 * n6,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.ScatterOn(d6, roots[i], ins[i])
				return
			},
			verify:  func(i int) error { return equal("scatter", out, wants[i]) },
			corrupt: func() { out[n6/3] ^= 1 << 40 },
		})
	}
	{
		ins := make([][][]int64, inputs)
		for i := range ins {
			ins[i] = make([][]int64, n4)
			for s := range ins[i] {
				ins[i][s] = randInts(rng, n4)
			}
		}
		var out [][]int64
		ops = append(ops, &opSpec{
			name: "alltoall", phase: "bulk", pkg: "collective", comm: d4.Comm(), dop: dcomm.OpAllToAll,
			bytes: 8 * n4 * n4,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.AllToAllOn(d4, ins[i])
				return
			},
			verify: func(i int) error {
				if len(out) != n4 {
					return fmt.Errorf("alltoall: %d rows, want %d", len(out), n4)
				}
				for j := range out {
					if len(out[j]) != n4 {
						return fmt.Errorf("alltoall: row %d has %d entries, want %d", j, len(out[j]), n4)
					}
					for s := range out[j] {
						if out[j][s] != ins[i][s][j] {
							return fmt.Errorf("alltoall: out[%d][%d] = %d, want in[%d][%d] = %d", j, s, out[j][s], s, j, ins[i][s][j])
						}
					}
				}
				return nil
			},
			corrupt: func() { out[1][2] ^= 1 << 40 },
		})
	}
	{
		ins := make([][]int64, inputs)
		wants := make([][]int64, inputs)
		for i := range ins {
			ins[i] = randInts(rng, k*n4)
			wants[i] = sortedCopy(ins[i], dualcube.Ascending)
		}
		var out []int64
		ops = append(ops, &opSpec{
			name: "samplesort", phase: "bulk", pkg: "samplesort",
			bytes: 8 * k * n4,
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.SampleSortOn(d4, k, ins[i])
				return
			},
			verify:  func(i int) error { return equal("samplesort", out, wants[i]) },
			corrupt: func() { out[len(out)-1] ^= 1 << 40 },
		})
	}
	{
		ins := make([][]int64, inputs)
		wants := make([][]int64, inputs)
		for i := range ins {
			ins[i] = randInts(rng, k*n4)
			wants[i] = sortedCopy(ins[i], orderOf(i))
		}
		var out []int64
		ops = append(ops, &opSpec{
			name: "sortlarge", phase: "bulk", pkg: "sortnet",
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.SortLargeOn(d4, k, ins[i], orderOf(i))
				return
			},
			verify:  func(i int) error { return equal("sortlarge", out, wants[i]) },
			corrupt: func() { out[7] ^= 1 << 40 },
		})
	}
	{
		as := make([][]uint64, inputs)
		bs := make([][]uint64, inputs)
		wants := make([][]uint64, inputs)
		for i := range as {
			as[i] = randMod(rng, polyLenA)
			bs[i] = randMod(rng, polyLenB)
			wants[i] = convolveMod(as[i], bs[i])
		}
		var out []uint64
		ops = append(ops, &opSpec{
			name: "polymul", phase: "bulk", pkg: "ntt",
			call: func(i int) (st dualcube.Stats, err error) {
				out, st, err = dualcube.PolyMulModOn(d4, as[i], bs[i])
				return
			},
			verify:  func(i int) error { return equal("polymul", out, wants[i]) },
			corrupt: func() { out[5] = (out[5] + 1) % polyMod },
		})
	}

	return ops
}

// prepare resolves each op's compiled schedule, runs every input once to
// fix its exact Stats, and checks the paper's bounds on them: prefix in 2n
// cycles (Theorem 1), sort in 6n²-7n+2 (Theorem 2), degraded prefix in 2n
// plus the rewritten schedule's RepairCycles.
func prepare(rts *runtimes, ops []*opSpec, inputs int) error {
	for _, o := range ops {
		if o.comm != nil {
			sch, err := dcomm.Compiled(o.comm, o.dop)
			if err != nil {
				return err
			}
			o.sched = sch
		}
		if o.name == "degraded_prefix" {
			d := o.comm.(*topology.DualCube)
			sch, err := dcomm.RewriteFT(o.sched, fault.NewView(d, rts.plan))
			if err != nil {
				return err
			}
			o.sched = sch
		}
		o.wantStats = make([]dualcube.Stats, inputs)
		for i := range o.wantStats {
			st, err := o.call(i)
			if err != nil {
				return fmt.Errorf("%s: set-up call: %w", o.name, err)
			}
			if err := o.verify(i); err != nil {
				return fmt.Errorf("set-up call: %w", err)
			}
			if err := paperBound(o, st); err != nil {
				return err
			}
			o.wantStats[i] = st
		}
	}
	return nil
}

// paperBound checks the cycle counts the paper proves.
func paperBound(o *opSpec, st dualcube.Stats) error {
	var want int
	switch o.name {
	case "prefix", "zcube_prefix":
		want = 2 * runtimeOrder
	case "sort":
		want = 6*runtimeOrder*runtimeOrder - 7*runtimeOrder + 2
	case "degraded_prefix":
		want = 2*runtimeOrder + o.sched.RepairCycles
	default:
		return nil
	}
	if st.Cycles != want {
		return fmt.Errorf("%s: %d cycles, want %d", o.name, st.Cycles, want)
	}
	return nil
}

func orderOf(i int) dualcube.Order {
	if i%2 == 0 {
		return dualcube.Ascending
	}
	return dualcube.Descending
}

func randInts(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int64N(2*valueRange) - valueRange
	}
	return out
}

func randMod(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64N(polyMod)
	}
	return out
}

func prefixSums(in []int64) []int64 {
	out := make([]int64, len(in))
	var s int64
	for i, v := range in {
		s += v
		out[i] = s
	}
	return out
}

func sum(in []int64) int64 {
	var s int64
	for _, v := range in {
		s += v
	}
	return s
}

func sortedCopy(in []int64, ord dualcube.Order) []int64 {
	out := slices.Clone(in)
	slices.Sort(out)
	if ord == dualcube.Descending {
		slices.Reverse(out)
	}
	return out
}

// convolveMod is the naive O(len(a)·len(b)) product mod 998244353.
func convolveMod(a, b []uint64) []uint64 {
	out := make([]uint64, len(a)+len(b)-1)
	for i, x := range a {
		for j, y := range b {
			out[i+j] = (out[i+j] + x*y%polyMod) % polyMod
		}
	}
	return out
}

// dataIndex is the dual-cube block layout written out independently of
// internal/topology: class-0 nodes hold their own index, class-1 nodes
// swap their two (n-1)-bit fields under the class bit.
func dataIndex(n, u int) int {
	m := n - 1
	classBit := 2*n - 2
	if u>>classBit&1 == 0 {
		return u
	}
	mask := 1<<m - 1
	return 1<<classBit | (u&mask)<<m | (u>>m)&mask
}

func equal[T comparable](name string, got, want []T) error {
	if len(got) < len(want) {
		return fmt.Errorf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d results, want %d", name, len(got), len(want))
	}
	return nil
}

func allEqual(name string, got []int64, n int, want int64) error {
	if len(got) != n {
		return fmt.Errorf("%s: %d results, want %d", name, len(got), n)
	}
	for i, v := range got {
		if v != want {
			return fmt.Errorf("%s: node %d holds %d, want %d", name, i, v, want)
		}
	}
	return nil
}
