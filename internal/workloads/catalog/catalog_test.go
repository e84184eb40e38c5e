package catalog

import (
	"errors"
	"reflect"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// TestBuildResolvesEverySuite resolves every built-in name: DNN layers
// onto the 8-unit DNN-provisioned cluster, MachSuite and extension
// codes onto the broadly provisioned single unit.
func TestBuildResolvesEverySuite(t *testing.T) {
	type want struct {
		units int
		cfg   core.Config
	}
	cases := map[string]want{}
	for _, e := range machsuite.All() {
		cases[e.Name] = want{1, core.DefaultConfig()}
	}
	for _, e := range ext.All() {
		cases[e.Name] = want{1, core.DefaultConfig()}
	}
	for _, l := range dnn.Layers() {
		cases[l.Name] = want{dnn.Units, dnn.Config()}
	}
	for name, w := range cases {
		inst, cfg, err := Build(name, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if inst.Name != name {
			t.Errorf("%s: built instance named %q", name, inst.Name)
		}
		if inst.Units() != w.units {
			t.Errorf("%s: %d units, want %d", name, inst.Units(), w.units)
		}
		if !reflect.DeepEqual(cfg, w.cfg) {
			t.Errorf("%s: resolved to the wrong machine configuration", name)
		}
	}
}

// TestBuildScale checks the scale contract: 0 means 1, and anything
// outside [1, MaxScale] is refused rather than built empty.
func TestBuildScale(t *testing.T) {
	zero, _, err := Build("gemm", 0)
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := Build("gemm", 1)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := Build("gemm", 2)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Profile != one.Profile {
		t.Errorf("scale 0 built %+v, scale 1 built %+v", zero.Profile, one.Profile)
	}
	if two.Profile == one.Profile {
		t.Errorf("scale 2 built the same problem as scale 1: %+v", two.Profile)
	}
	for _, scale := range []int{-1, MaxScale + 1} {
		if _, _, err := Build("gemm", scale); err == nil || errors.Is(err, ErrUnknown) {
			t.Errorf("scale %d: got %v, want an out-of-range error", scale, err)
		}
		if _, err := Scale(scale); err == nil {
			t.Errorf("Scale(%d) accepted an out-of-range scale", scale)
		}
	}
	for in, want := range map[int]int{0: 1, 1: 1, MaxScale: MaxScale} {
		if got, err := Scale(in); err != nil || got != want {
			t.Errorf("Scale(%d) = %d, %v; want %d", in, got, err, want)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	for _, name := range []string{"", "no-such", "GEMM"} {
		if _, _, err := Build(name, 1); !errors.Is(err, ErrUnknown) {
			t.Errorf("%q: got %v, want ErrUnknown", name, err)
		}
	}
}
