package bench

import (
	"context"
	"fmt"

	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/lint"
	"softbrain/internal/obs"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// FixRow reports one workload's barrier count and warm-run cycles in
// three forms: as shipped, fully serialized (an SD_Barrier_All after
// every command — the conservative program a cautious programmer or a
// naive compiler writes), and after the fix pass has eliminated the
// serialization it can prove redundant. Fixed should recover shipped.
//
// The placement fields extend the study to where the surviving barriers
// sit: the fixed programs normalized to the latest-legal placement (the
// no-profile baseline) versus the profile-guided cost-aware placement
// of fix.HoistBarriers, with the barrier-drain stall cycles of each —
// the component of the total the chooser actually optimizes.
type FixRow struct {
	Workload                         string
	Shipped, Serialized, Fixed       int    // barrier counts
	ShippedCy, SerializedCy, FixedCy uint64 // cycles

	Hoists                    int    // barriers the cost-aware chooser moved
	LatestCy, HoistedCy       uint64 // cycles at latest-legal vs cost-aware placement
	LatestDrain, HoistedDrain uint64 // barrier-drain stall cycles at each placement
}

// fixStudyWorkloads are the kernels of the study: stream-heavy kernels
// whose traces serialize badly, plus the indirect workloads where the
// fix pass must keep the load-bearing barriers.
var fixStudyWorkloads = []struct{ suite, name string }{
	{"machsuite", "spmv-crs"},
	{"machsuite", "stencil2d"},
	{"machsuite", "gemm"},
	{"machsuite", "bfs"},
	{"machsuite", "spmv-ellpack"},
	{"machsuite", "md-knn"},
	{"machsuite", "stencil3d"},
	{"machsuite", "viterbi"},
	{"ext", "nw"},
	{"ext", "backprop"},
	{"ext", "fft"},
	{"ext", "lut"}, // scratch round-trip: bounded only by value tracking
}

// FixStudy measures the cost of over-serialization and how much of it
// the barrier-elimination pass recovers. The context bounds the whole
// study (sdbench -timeout).
func FixStudy(ctx context.Context) ([]FixRow, error) {
	var rows []FixRow
	for _, w := range fixStudyWorkloads {
		cfg := core.DefaultConfig()
		var (
			inst *workloads.Instance
			err  error
		)
		switch w.suite {
		case "machsuite":
			var e machsuite.Entry
			if e, err = machsuite.Find(w.name); err == nil {
				inst, err = e.Build(cfg, 1)
			}
		case "ext":
			var e ext.Entry
			if e, err = ext.Find(w.name); err == nil {
				inst, err = e.Build(cfg, 1)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("bench: fix study %s: %w", w.name, err)
		}

		serialized := make([]*core.Program, len(inst.Progs))
		fixed := make([]*core.Program, len(inst.Progs))
		row := FixRow{Workload: w.name}
		for i, p := range inst.Progs {
			serialized[i] = fix.Serialize(p)
			q, rep, err := fix.Fix(serialized[i], cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: fix study %s: %w", w.name, err)
			}
			fixed[i] = q
			row.Shipped += fix.CountBarriers(p)
			row.Serialized += rep.BarriersBefore
			row.Fixed += rep.BarriersAfter
		}
		for _, m := range []struct {
			progs []*core.Program
			out   *uint64
		}{
			{inst.Progs, &row.ShippedCy},
			{serialized, &row.SerializedCy},
			{fixed, &row.FixedCy},
		} {
			_, stats, err := withProgs(inst, m.progs).Run(ctx, cfg, false, nil)
			if err != nil {
				return nil, fmt.Errorf("bench: fix study %s: %w", w.name, err)
			}
			*m.out = stats.Cycles
		}
		if err := placementStudy(ctx, inst, cfg, fixed, &row); err != nil {
			return nil, fmt.Errorf("bench: fix study %s: %w", w.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// placementStudy measures the placement half of the study on one
// workload: normalize the fixed programs to the latest-legal placement,
// profile that run for per-barrier drain cycles, then let the
// cost-aware chooser hoist barriers within their legal intervals with a
// full simulation as the cost oracle (so committed moves are strict
// improvements by construction). Every candidate run still verifies the
// workload's golden check.
func placementStudy(ctx context.Context, inst *workloads.Instance, cfg core.Config, fixed []*core.Program, row *FixRow) error {
	latest := make([]*core.Program, len(fixed))
	for i, p := range fixed {
		q, _, err := fix.PlaceLatest(p, cfg)
		if err != nil {
			return err
		}
		latest[i] = q
	}
	lCl, lStats, err := withProgs(inst, latest).Run(ctx, cfg, false, enableMetrics)
	if err != nil {
		return err
	}
	dump := lCl.MetricsDump()
	row.LatestCy, row.LatestDrain = lStats.Cycles, lStats.BarrierCycles

	hoisted := make([]*core.Program, len(latest))
	copy(hoisted, latest)
	for i := range latest {
		pr := fix.ProfileFromUnit(dump.Units[i])
		if pr == nil {
			continue
		}
		idx := i
		evaluate := func(cand *core.Program) (uint64, error) {
			trial := make([]*core.Program, len(hoisted))
			copy(trial, hoisted)
			trial[idx] = cand
			_, stats, err := withProgs(inst, trial).Run(ctx, cfg, false, nil)
			if err != nil {
				return 0, err
			}
			return stats.Cycles, nil
		}
		q, moves, err := fix.HoistBarriers(latest[i], cfg, fix.HoistOpts{Profile: pr, Evaluate: evaluate})
		if err != nil {
			return err
		}
		// A hoisted placement must keep the strictest analysis verdict.
		fs, err := lint.CheckWith(q, cfg, lint.Opts{Exhaustive: true, StrictIndirect: true})
		if err != nil {
			return err
		}
		for _, f := range fs {
			if f.Sev == lint.SevError {
				return fmt.Errorf("hoisted %s: %v", q.Name, f)
			}
		}
		hoisted[i] = q
		row.Hoists += len(moves)
	}
	_, hStats, err := withProgs(inst, hoisted).Run(ctx, cfg, false, enableMetrics)
	if err != nil {
		return err
	}
	row.HoistedCy, row.HoistedDrain = hStats.Cycles, hStats.BarrierCycles
	return nil
}

// withProgs is inst running the given program set in place of its
// own: the same input image and golden check. Fix-study runs are cold:
// some study workloads (backprop) update their inputs in place, so a
// warm re-run would not verify.
func withProgs(inst *workloads.Instance, progs []*core.Program) *workloads.Instance {
	alt := *inst
	alt.Progs = progs
	return &alt
}

// enableMetrics attaches the per-unit metrics registries whose
// barrier_drains sections feed the cost-aware chooser.
func enableMetrics(cl *core.Cluster) { cl.EnableMetrics(obs.Options{}) }
