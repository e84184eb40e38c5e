package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/sim"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// goldensPath holds the simulated cycle count of every suite entry.
// The benchmark reads it and never writes it.
const goldensPath = "scripts/bench_goldens.json"

// machScale is the MachSuite problem scale of each suite entry, the
// same scales the host-performance suite of cmd/sdbench uses; the
// cycle goldens pin them.
var machScale = map[string]int{
	"bfs": 6, "gemm": 3, "md-knn": 4, "spmv-crs": 4,
	"spmv-ellpack": 4, "stencil2d": 3, "stencil3d": 3, "viterbi": 4,
}

// entry is one program set of the host-performance suite.
type entry struct {
	name  string
	build func() (*workloads.Instance, core.Config, error)
}

// suite lists the twelve entries of the host-performance suite:
// single-unit MachSuite, lut, the class1p and class3p layers on the
// 8-unit DNN cluster, and gemm replicated over four units.
func suite() []entry {
	var es []entry
	for _, e := range machsuite.All() {
		e := e
		es = append(es, entry{e.Name, func() (*workloads.Instance, core.Config, error) {
			cfg := core.DefaultConfig()
			inst, err := e.Build(cfg, machScale[e.Name])
			return inst, cfg, err
		}})
	}
	lut, err := ext.Find("lut")
	if err != nil {
		panic(err) // the suite names a built-in; missing it is a bug
	}
	es = append(es, entry{"lut", func() (*workloads.Instance, core.Config, error) {
		cfg := core.DefaultConfig()
		inst, err := lut.Build(cfg, 2)
		return inst, cfg, err
	}})
	for _, l := range dnn.Layers()[:2] {
		l := l
		es = append(es, entry{l.Name, func() (*workloads.Instance, core.Config, error) {
			cfg := dnn.Config()
			inst, err := l.Build(cfg, dnn.Units)
			return inst, cfg, err
		}})
	}
	gemm, err := machsuite.Find("gemm")
	if err != nil {
		panic(err)
	}
	es = append(es, entry{"gemm-x4", func() (*workloads.Instance, core.Config, error) {
		cfg := core.DefaultConfig()
		var first *workloads.Instance
		for k := 0; k < 4; k++ {
			inst, err := gemm.Build(cfg, machScale["gemm"])
			if err != nil {
				return nil, cfg, err
			}
			if first == nil {
				first = inst
			} else {
				first.Progs = append(first.Progs, inst.Progs...)
			}
		}
		first.Name = "gemm-x4"
		return first, cfg, nil
	}})
	return es
}

// built is one entry after set-up: its programs and machine config.
type built struct {
	name   string
	inst   *workloads.Instance
	cfg    core.Config
	golden uint64
}

// simOp is one timed simulation: NewCluster+Init, RunContext, Check.
type simOp struct {
	entry               int
	op, setup, run, chk time.Duration
	cycles              uint64
	mallocs, allocBytes uint64
	sched               sim.SchedStats
	pass                int
	traced              bool
}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 15

func runSimBatch(cfg config) (*outcome, error) {
	out := &outcome{}
	data, err := os.ReadFile(goldensPath)
	if err != nil {
		return nil, fmt.Errorf("reading cycle goldens: %w", err)
	}
	var goldens map[string]uint64
	if err := json.Unmarshal(data, &goldens); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldensPath, err)
	}
	es := suite()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(time.Now())
	}

	// Set-up: build every program set, repeatedly.
	var setups []time.Duration
	buildMs := make([][]float64, len(es))
	var progs []built
	for rep := 0; rep < setupRepeats; rep++ {
		progs = progs[:0]
		start := time.Now()
		root := rec.begin("bench.setup", -1, int64(rep))
		for i, e := range es {
			t0 := time.Now()
			id := rec.begin("workloads.Build", root, int64(rep))
			inst, mcfg, err := e.build()
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("building %s: %w", e.name, err)
			}
			buildMs[i] = append(buildMs[i], float64(time.Since(t0).Nanoseconds())/1e6)
			g, ok := goldens[e.name]
			if !ok {
				return nil, fmt.Errorf("%s has no cycle golden in %s", e.name, goldensPath)
			}
			progs = append(progs, built{e.name, inst, mcfg, g})
		}
		rec.end(root)
		setups = append(setups, time.Since(start))
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	ctx := context.Background()
	// One pass runs every entry once, in a seeded order, until the run
	// has measured for --seconds. A traced run records spans on every
	// other pass; the untraced passes between them give the overhead.
	var ops []simOp
	var tracedPasses, plainPasses []time.Duration
	begin := time.Now()
	for pass := 0; time.Since(begin) < seconds(cfg.seconds); pass++ {
		traced := cfg.trace && pass%2 == 1
		r := rec
		if !traced {
			r = nil
		}
		p0 := time.Now()
		root := r.begin("bench.pass", -1, int64(pass))
		for _, i := range rng.Perm(len(progs)) {
			op, err := simulate(ctx, progs[i], r, root, int64(pass))
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("%s: %v", progs[i].name, err)
				continue
			}
			op.entry, op.pass, op.traced = i, pass, traced
			ops = append(ops, op)
		}
		r.end(root)
		if traced {
			tracedPasses = append(tracedPasses, time.Since(p0))
		} else {
			plainPasses = append(plainPasses, time.Since(p0))
		}
	}
	elapsed := time.Since(begin)
	mem := cfg.mem.median()

	if !cfg.trace {
		// A request is one entry's simulation, a pass a batch of twelve.
		// Pooled, the latencies form twelve separated clusters, and the
		// pooled p50 falls on the border between two of them, where it
		// reads one entry's most extreme sample. So the percentiles are
		// taken within each pass, and the median over passes reported.
		byPass := map[int][]time.Duration{}
		for _, op := range ops {
			byPass[op.pass] = append(byPass[op.pass], op.op)
		}
		var p50, p99 []float64
		for _, lat := range byPass {
			l := latencyOf(lat)
			p50, p99 = append(p50, l.p50), append(p99, l.p99)
		}
		lat := latency{median(p50), median(p99), len(byPass)}
		perSec := float64(len(ops)) / elapsed.Seconds()
		unitNs, clusterNs, cycles := perCycle(progs, ops)
		var want uint64
		for _, b := range progs {
			want += b.golden
		}
		if cycles != want {
			out.problem("a pass simulated %d cycles, the goldens sum to %d", cycles, want)
		}
		out.setEndToEnd(setups, mem, lat, perSec, cycles, unitNs, clusterNs)
		return out, nil
	}

	if len(plainPasses) > 0 && len(tracedPasses) > 0 {
		out.set("trace.overhead_share", "ratio", meanDur(tracedPasses)/meanDur(plainPasses)-1)
	}
	var traced []simOp
	for _, op := range ops {
		if op.traced {
			traced = append(traced, op)
		}
	}
	out.set("bench.samples", "count", float64(len(traced)))
	for i, b := range progs {
		var run, mallocs, bytes []float64
		var last simOp
		for _, op := range traced {
			if op.entry != i {
				continue
			}
			run = append(run, float64(op.run.Nanoseconds()))
			mallocs = append(mallocs, float64(op.mallocs))
			bytes = append(bytes, float64(op.allocBytes))
			last = op
		}
		if len(run) == 0 {
			continue
		}
		c := float64(last.cycles)
		out.set("workloads.build_ms."+b.name, "ms", median(buildMs[i]))
		out.set("core.ns_per_cycle."+b.name, "ns/cycle", median(run)/c)
		out.set("core.allocs_per_cycle."+b.name, "allocs/cycle", median(mallocs)/c)
		out.set("core.bytes_per_cycle."+b.name, "B/cycle", median(bytes)/c)
		s := last.sched
		if total := float64(s.Cycles + s.Skipped); total > 0 {
			out.set("sim.ticks_per_cycle."+b.name, "ticks/cycle", float64(s.CompTicks)/total)
			out.set("sim.span_share."+b.name, "ratio", float64(s.SpanCycles)/total)
			out.set("sim.skip_share."+b.name, "ratio", float64(s.Skipped)/total)
		}
	}
	// Per-pass sums of the two small layers.
	setupMs, checkMs := map[int]float64{}, map[int]float64{}
	for _, op := range traced {
		setupMs[op.pass] += float64(op.setup.Nanoseconds()) / 1e6
		checkMs[op.pass] += float64(op.chk.Nanoseconds()) / 1e6
	}
	out.set("core.setup_ms", "ms", median(values(setupMs)))
	out.set("workloads.check_ms", "ms", median(values(checkMs)))
	account([]*recorder{rec}, "bench.pass").set(out, traceLayers)
	if err := writeSpans(cfg.workload, cfg.seed, []*recorder{rec}); err != nil {
		return nil, err
	}
	return out, nil
}

// simulate runs one entry on a fresh cluster and checks it: the golden
// model must accept the memory image and the cycle count must equal
// the committed golden. With a recorder it also reads the allocation
// counters around the run.
func simulate(ctx context.Context, b built, rec *recorder, parent int32, req int64) (simOp, error) {
	var op simOp
	eid := rec.begin("bench.entry", parent, req)
	defer rec.end(eid)
	t0 := time.Now()
	id := rec.begin("core.NewCluster", eid, req)
	cl, err := core.NewCluster(b.cfg, b.inst.Units())
	rec.end(id)
	if err != nil {
		return op, err
	}
	id = rec.begin("workloads.Init", eid, req)
	b.inst.Init(cl.Mem)
	rec.end(id)
	t1 := time.Now()
	var m0, m1 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&m0)
	}
	id = rec.begin("core.RunContext", eid, req)
	r0 := time.Now()
	stats, err := cl.RunContext(ctx, b.inst.Progs)
	r1 := time.Now()
	rec.end(id)
	if err != nil {
		return op, err
	}
	if rec != nil {
		runtime.ReadMemStats(&m1)
		op.mallocs = m1.Mallocs - m0.Mallocs
		op.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	id = rec.begin("sim.SchedStats", eid, req)
	op.sched = cl.SchedStats()
	rec.end(id)
	c0 := time.Now()
	id = rec.begin("workloads.Check", eid, req)
	err = b.inst.Check(cl.Mem)
	rec.end(id)
	t3 := time.Now()
	if err != nil {
		return op, err
	}
	if stats.Cycles != b.golden {
		return op, fmt.Errorf("%d cycles, golden %d", stats.Cycles, b.golden)
	}
	op.cycles = stats.Cycles
	op.op, op.setup, op.run, op.chk = t3.Sub(t0), t1.Sub(t0), r1.Sub(r0), t3.Sub(c0)
	return op, nil
}

// perCycle is the host time per simulated cycle of each entry, the
// median over its untraced ops of NewCluster+Init through Check, split
// into single-unit and multi-unit entries; and the simulated cycles of
// one pass over the suite.
func perCycle(progs []built, ops []simOp) (unitNs, clusterNs []float64, cycles uint64) {
	for i, b := range progs {
		var ns []float64
		var c uint64
		for _, op := range ops {
			if op.entry == i && !op.traced {
				ns = append(ns, float64(op.op.Nanoseconds()))
				c = op.cycles
			}
		}
		if len(ns) == 0 {
			continue
		}
		cycles += c
		v := median(ns) / float64(c)
		if b.inst.Units() > 1 {
			clusterNs = append(clusterNs, v)
		} else {
			unitNs = append(unitNs, v)
		}
	}
	return unitNs, clusterNs, cycles
}

func meanDur(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
