// Package workloads defines the common shape of the benchmark
// workloads: a stream-dataflow program (or one per Softbrain unit), the
// memory image initializer, a golden-model checker, and the analytic
// profile the baseline models consume. Subpackages dnn and machsuite
// hold the actual workloads of Sections 7.1 and 7.2.
package workloads

import (
	"context"
	"fmt"

	"softbrain/internal/baseline"
	"softbrain/internal/baseline/asic"
	"softbrain/internal/core"
	"softbrain/internal/mem"
)

// Instance is one concrete, sized workload ready to run.
type Instance struct {
	Name string

	// Progs holds one program per Softbrain unit; single-unit workloads
	// have exactly one entry.
	Progs []*core.Program

	// Init writes the input data into the memory image.
	Init func(m *mem.Memory)

	// Check compares the memory image against the golden model after
	// the run.
	Check func(m *mem.Memory) error

	// Profile feeds the CPU/GPU/DianNao analytic models.
	Profile baseline.Profile

	// Kernel feeds the ASIC (Aladdin-like) model; nil for workloads
	// that are not part of the MachSuite comparison.
	Kernel *asic.Kernel

	// Table 4 characterization.
	Patterns string
	Datapath string
}

// Units is the number of Softbrain units the instance runs on.
func (i *Instance) Units() int { return len(i.Progs) }

// CheckError reports a completed run whose output did not match the
// workload's golden model. Run returns it together with the cluster and
// the statistics, so a caller that expects corruption (a bit-flipping
// fault profile) can still report the run.
type CheckError struct {
	Name string
	Err  error // the golden model's verdict
}

func (e *CheckError) Error() string { return fmt.Sprintf("workloads: verifying %s: %v", e.Name, e.Err) }

func (e *CheckError) Unwrap() error { return e.Err }

// Run is the one build/run/verify sequence every simulation of a
// workload goes through: it builds a fresh cluster with one unit per
// program, writes the input image, lets prepare instrument the cluster
// (heartbeats, metrics, tracing; nil for none), runs the programs, and
// verifies the output against the golden model. With warm it first
// runs the programs once unobserved on the same cluster, then reports
// the second, cache-warm run — the standard steady-state measurement,
// and the regime the paper's accelerator comparisons operate in
// (workload programs are idempotent, so verification still holds).
// Statistics and instrumentation cover the reported run only. A nil
// Check skips verification.
//
// The returned cluster carries everything instrumentation collected
// (MetricsDump, SchedStats, FaultStats, TraceInputs, per-unit traces).
// It is non-nil whenever the cluster was built, even alongside an
// error. Simulation failures are the simulator's typed errors
// (*core.DeadlockError, *core.MachineError, *core.CanceledError) as
// returned; a golden mismatch is a *CheckError and comes with the
// statistics. The context bounds host wall-clock time across both warm
// runs; the cycle watchdog bounds simulated time.
func (i *Instance) Run(ctx context.Context, cfg core.Config, warm bool, prepare func(*core.Cluster)) (*core.Cluster, *core.Stats, error) {
	if len(i.Progs) == 0 {
		return nil, nil, fmt.Errorf("workloads: %s has no programs", i.Name)
	}
	cl, err := core.NewCluster(cfg, len(i.Progs))
	if err != nil {
		return nil, nil, err
	}
	if i.Init != nil {
		i.Init(cl.Mem)
	}
	if warm {
		if _, err := cl.RunContext(ctx, i.Progs); err != nil {
			return cl, nil, err
		}
	}
	if prepare != nil {
		prepare(cl)
	}
	stats, err := cl.RunContext(ctx, i.Progs)
	if err != nil {
		return cl, nil, err
	}
	if i.Check != nil {
		if err := i.Check(cl.Mem); err != nil {
			return cl, stats, &CheckError{Name: i.Name, Err: err}
		}
	}
	return cl, stats, nil
}

// Layout is a bump allocator for laying out workload data in the memory
// image below the configuration space. Overflow is a sticky error, so a
// builder can chain Alloc calls and check Err once at the end.
type Layout struct {
	next uint64
	err  error
}

// NewLayout starts allocating at a small non-zero base.
func NewLayout() *Layout { return &Layout{next: 0x1_0000} }

// Alloc reserves n bytes, 64-byte aligned, and returns the base address.
// On overflow into the configuration space it records the error
// (observable via Err) and keeps allocating, so addresses stay distinct.
func (l *Layout) Alloc(n uint64) uint64 {
	addr := l.next
	l.next += (n + 63) &^ 63
	if l.err == nil && l.next >= core.ConfigSpace {
		l.err = fmt.Errorf("workloads: memory image (%#x bytes) overflows into configuration space at %#x",
			l.next, core.ConfigSpace)
	}
	return addr
}

// Err reports whether any allocation overflowed the data space.
func (l *Layout) Err() error { return l.err }
