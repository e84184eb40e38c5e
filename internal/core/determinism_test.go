// Cluster determinism: units sharing one DRAM channel contend for its
// bandwidth, which may change their timing but never their data. Each
// unit of a cluster with disjoint footprints must leave its region of
// memory exactly as a standalone run of its program would. make soak
// runs these under the race detector.
package core_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/dfg"
	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/workloads/dnn"
)

// runCluster runs progs on a fresh metrics-enabled cluster, checks the
// merged metrics dump for conservation, and returns the memory image.
func runCluster(t *testing.T, cfg core.Config, progs []*core.Program, init func(*mem.Memory)) *mem.Memory {
	t.Helper()
	cl, err := core.NewCluster(cfg, len(progs))
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableMetrics(obs.Options{})
	if init != nil {
		init(cl.Mem)
	}
	if _, err := cl.Run(progs); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckConservation(cl.MetricsDump()); err != nil {
		t.Error(err)
	}
	return cl.Mem
}

// TestClusterDeterminismDNN runs DNN layers on the 8-unit cluster: the
// metrics must conserve and the image must pass the golden-model check.
func TestClusterDeterminismDNN(t *testing.T) {
	cfg := dnn.Config()
	layers := dnn.Layers()
	if testing.Short() {
		layers = layers[:2]
	}
	for _, l := range layers {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := l.Build(cfg, dnn.Units)
			if err != nil {
				t.Fatal(err)
			}
			m := runCluster(t, cfg, inst.Progs, inst.Init)
			if inst.Check != nil {
				if err := inst.Check(m); err != nil {
					t.Errorf("cluster run failed the golden check: %v", err)
				}
			}
		})
	}
}

// TestClusterDeterminismProgen runs generated programs, rebased to a
// disjoint memory region per unit, on a 4-unit cluster, then runs each
// unit's program alone: every unit's region of the cluster image must
// equal its standalone image.
func TestClusterDeterminismProgen(t *testing.T) {
	cfg := core.DefaultConfig()
	const units = 4
	const stride = uint64(1) << 20 // disjoint 1 MiB region per unit
	// The generated programs touch only [0x1_0000, 0x3_0000) before
	// rebasing (progen.MemPools).
	const lo, hi = uint64(0x1_0000), uint64(0x3_0000)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var progs []*core.Program
		_, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		generated := progen.Commands(rng, ports)
		for u := 0; u < units; u++ {
			p, _, err := progen.Addpair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range progen.Rebase(generated, uint64(u)*stride) {
				p.Emit(c)
			}
			if err := p.Err(); err != nil {
				t.Fatal(err)
			}
			fixed, _, err := fix.Fix(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, fixed)
		}
		init := func(m *mem.Memory) {
			line := make([]byte, 64)
			irng := rand.New(rand.NewSource(seed + 1000))
			for u := 0; u < units; u++ {
				for _, pool := range progen.MemPools {
					irng.Read(line)
					m.Write(pool+uint64(u)*stride, line)
				}
			}
		}
		clusterMem := runCluster(t, cfg, progs, init)
		for u, p := range progs {
			alone := runCluster(t, cfg, []*core.Program{p}, init)
			base := uint64(u) * stride
			got := make([]byte, hi-lo)
			want := make([]byte, hi-lo)
			clusterMem.Read(base+lo, got)
			alone.Read(base+lo, want)
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d: unit %d region differs between the cluster and a standalone run", seed, u)
			}
		}
	}
}

// TestClusterConfigMismatch: a cluster assembled from units with
// different configurations must be rejected up front, not silently run
// under unit 0's watchdog and fault policy.
func TestClusterConfigMismatch(t *testing.T) {
	cfgA := core.DefaultConfig()
	cfgB := cfgA
	cfgB.PadBufEntries++
	mA, err := core.NewMachine(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := core.NewMachine(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	cl := &core.Cluster{Units: []*core.Machine{mA, mB}}
	pa, _, err := progen.Addpair(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := progen.Addpair(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Run([]*core.Program{pa, pb})
	if err == nil || !strings.Contains(err.Error(), "config differs") {
		t.Fatalf("mismatched cluster ran anyway: err=%v", err)
	}
}

// pairProgram builds a program that streams n words from a and b at
// base through the binary op and writes the results after them.
func pairProgram(t *testing.T, cfg core.Config, op dfg.Op, base, n uint64) *core.Program {
	t.Helper()
	b := dfg.NewBuilder(op.String())
	x := b.Input("A", 1)
	y := b.Input("B", 1)
	b.Output("C", b.N(op, x.W(0), y.W(0)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProgram(op.String())
	p.CompileAndConfigure(cfg.Fabric, g)
	p.Emit(isa.MemPort{Src: isa.Linear(base, 8*n), Dst: p.In("A")})
	p.Emit(isa.MemPort{Src: isa.Linear(base+8*n, 8*n), Dst: p.In("B")})
	p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(base+16*n, 8*n)})
	p.Emit(isa.BarrierAll{})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestClusterSharedConfigSlot: two units in one phase configure
// different DFGs at the same slot address. Each unit must still run its
// own configuration, so its output region equals its standalone run,
// and the finished image holds nothing but the units' data — no
// bitstream bytes in config space.
func TestClusterSharedConfigSlot(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 16
	const span = 24 * n // inputs A and B, then output C
	bases := []uint64{0x1_0000, 0x10_0000}
	progs := []*core.Program{
		pairProgram(t, cfg, dfg.Add(64), bases[0], n),
		pairProgram(t, cfg, dfg.Mul(64), bases[1], n),
	}
	slot := core.ConfigSpace + core.ConfigSlotBytes
	for _, p := range progs {
		if _, ok := p.Configs[slot]; !ok || len(p.Configs) != 1 {
			t.Fatalf("%s: want one bitstream at slot 1 (%#x), have %d", p.Name, slot, len(p.Configs))
		}
	}
	if bytes.Equal(progs[0].Configs[slot], progs[1].Configs[slot]) {
		t.Fatal("the two DFGs encode to the same bitstream")
	}
	init := func(m *mem.Memory) {
		irng := rand.New(rand.NewSource(1))
		for _, base := range bases {
			for i := uint64(0); i < 2*n; i++ {
				m.WriteU64(base+8*i, uint64(irng.Int63n(1000)))
			}
		}
	}
	clusterMem := runCluster(t, cfg, progs, init)
	only := mem.NewMemory()
	for u, p := range progs {
		alone := runCluster(t, cfg, []*core.Program{p}, init)
		got := make([]byte, span)
		want := make([]byte, span)
		clusterMem.Read(bases[u], got)
		alone.Read(bases[u], want)
		if !bytes.Equal(got, want) {
			t.Errorf("unit %d (%s): region differs between the cluster and a standalone run", u, p.Name)
		}
		only.Write(bases[u], got)
	}
	if addr, diff := clusterMem.FirstDiff(only); diff {
		t.Errorf("memory image holds bytes outside the units' regions at %#x (config space starts at %#x)", addr, core.ConfigSpace)
	}
}
