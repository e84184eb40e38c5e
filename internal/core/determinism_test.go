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
	"softbrain/internal/fix"
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
