// Package catalog resolves a built-in workload by name to a sized
// instance and the machine it runs on. It is the one place that says
// how the paper's evaluation provisions each workload: DNN layers run
// on the 8-unit DNN-provisioned cluster (Section 7.1), MachSuite and
// extension codes on the broadly provisioned single unit (Section 7.2).
package catalog

import (
	"errors"
	"fmt"

	"softbrain/internal/core"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// MaxScale bounds the problem scale a caller may request.
const MaxScale = 8

// ErrUnknown is wrapped by Build's error for a name no suite defines.
var ErrUnknown = errors.New("unknown workload")

// Scale normalizes a requested problem scale: 0 means 1, and scales
// outside [1, MaxScale] are rejected.
func Scale(scale int) (int, error) {
	if scale == 0 {
		scale = 1
	}
	if scale < 1 || scale > MaxScale {
		return 0, fmt.Errorf("scale %d out of range [1, %d]", scale, MaxScale)
	}
	return scale, nil
}

// Build resolves name at the given problem scale, normalized by Scale.
// DNN layers have a fixed size and ignore the scale.
func Build(name string, scale int) (*workloads.Instance, core.Config, error) {
	scale, err := Scale(scale)
	if err != nil {
		return nil, core.Config{}, err
	}
	if l, err := dnn.Find(name); err == nil {
		cfg := dnn.Config()
		inst, err := l.Build(cfg, dnn.Units)
		return inst, cfg, err
	}
	cfg := core.DefaultConfig()
	if e, err := machsuite.Find(name); err == nil {
		inst, err := e.Build(cfg, scale)
		return inst, cfg, err
	}
	e, err := ext.Find(name)
	if err != nil {
		return nil, core.Config{}, fmt.Errorf("%w %q", ErrUnknown, name)
	}
	inst, err := e.Build(cfg, scale)
	return inst, cfg, err
}
