package ext

import (
	"context"
	"testing"

	"softbrain/internal/core"
)

// TestExtensionWorkloadsVerify runs each footnote-3 workload and checks
// its output bit-exactly against the golden model.
func TestExtensionWorkloadsVerify(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			inst, err := e.Build(cfg, 1)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			_, stats, err := inst.Run(context.Background(), cfg, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Instances == 0 {
				t.Error("no CGRA instances fired")
			}
			if inst.Kernel == nil || inst.Profile.KernelOps == 0 {
				t.Error("missing profile or ASIC kernel")
			}
			t.Logf("%-9s %8d cycles %7d instances %5d commands",
				e.Name, stats.Cycles, stats.Instances, stats.Commands)
		})
	}
}

// TestExtensionScalesUp exercises larger problem sizes, including the
// multi-configuration backprop program.
func TestExtensionScalesUp(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, name := range []string{"fft", "backprop"} {
		e, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := e.Build(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := inst.Run(context.Background(), cfg, false, nil); err != nil {
			t.Errorf("%s scale 2: %v", name, err)
		}
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("fft"); err != nil {
		t.Error(err)
	}
	if _, err := Find("md-gridding"); err == nil {
		t.Error("unimplemented workload found")
	}
}
