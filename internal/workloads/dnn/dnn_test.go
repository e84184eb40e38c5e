package dnn

import (
	"context"
	"testing"

	"softbrain/internal/baseline"
)

// TestAllLayersVerify runs every Figure 11 layer on the 8-unit DNN
// cluster and checks bit-exact output against the golden model.
func TestAllLayersVerify(t *testing.T) {
	cfg := Config()
	for _, l := range Layers() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			inst, err := l.Build(cfg, Units)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if inst.Units() != Units {
				t.Fatalf("%d unit programs, want %d", inst.Units(), Units)
			}
			_, stats, err := inst.Run(context.Background(), cfg, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Instances == 0 {
				t.Error("no CGRA instances fired")
			}
			t.Logf("%-8s %8d cycles %9d instances %10d fu-ops",
				l.Name, stats.Cycles, stats.Instances, stats.FUOps)
		})
	}
}

func TestLayerProfilesReasonable(t *testing.T) {
	for _, l := range Layers() {
		inst, err := l.Build(Config(), Units)
		if err != nil {
			t.Fatal(err)
		}
		p := inst.Profile
		if p.KernelOps == 0 || p.MemBytes == 0 {
			t.Errorf("%s: empty profile %+v", l.Name, p)
		}
		if l.Kind != Pool && p.MACs == 0 {
			t.Errorf("%s: MAC count missing", l.Name)
		}
		// The analytic baselines must all produce nonzero times.
		if baseline.SingleThreadCPU().Cycles(p) == 0 || baseline.DianNao().Cycles(p) == 0 {
			t.Errorf("%s: degenerate baseline cycles", l.Name)
		}
	}
}

func TestFindLayer(t *testing.T) {
	if _, err := Find("conv3p"); err != nil {
		t.Error(err)
	}
	if _, err := Find("zzz"); err == nil {
		t.Error("unknown layer found")
	}
}

func TestRanges(t *testing.T) {
	r := ranges(10, 4)
	total := 0
	prev := 0
	for _, rg := range r {
		if rg[0] != prev {
			t.Fatalf("ranges not contiguous: %v", r)
		}
		total += rg[1] - rg[0]
		prev = rg[1]
	}
	if total != 10 {
		t.Fatalf("ranges cover %d of 10", total)
	}
	// More parts than items: some parts empty, still contiguous.
	r = ranges(3, 8)
	if r[7][1] != 3 {
		t.Fatalf("ranges(3,8) = %v", r)
	}
}
