package workloads_test

import (
	"context"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/obs"
	"softbrain/internal/workloads/catalog"
)

// TestWarmRunReportsMeasuredRun checks that a warm run reports only its
// second, cache-warm pass: the work done (dataflow instances, commands,
// core instructions, bytes moved) equals the cold run's, only the
// cycle count drops, the scheduler counters add up to that cycle
// count, and a metrics registry attached to the warm run conserves
// cycles.
func TestWarmRunReportsMeasuredRun(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"gemm", "class1p"} {
		inst, cfg, err := catalog.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, cold, err := inst.Run(ctx, cfg, false, nil)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		cl, warm, err := inst.Run(ctx, cfg, true, nil)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		work := func(s *core.Stats) [9]uint64 {
			return [9]uint64{s.Instances, s.FUOps, s.Commands, s.CoreInstrs, s.RecurrenceBytes,
				s.ScratchBytesRead, s.ScratchBytesWrit, s.MemBytesRead, s.MemBytesWritten}
		}
		if w, c := work(warm), work(cold); w != c {
			t.Errorf("%s: warm work %v != cold work %v", name, w, c)
		}
		if warm.Cycles >= cold.Cycles {
			t.Errorf("%s: warm run took %d cycles, cold %d", name, warm.Cycles, cold.Cycles)
		}
		if inst.Units() == 1 {
			if s := cl.SchedStats(); s.Cycles+s.Skipped != warm.Cycles {
				t.Errorf("%s: scheduler stepped %d + jumped %d cycles, run took %d",
					name, s.Cycles, s.Skipped, warm.Cycles)
			}
		}

		mCl, mStats, err := inst.Run(ctx, cfg, true, func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{}) })
		if err != nil {
			t.Fatalf("%s warm with metrics: %v", name, err)
		}
		if mStats.Cycles != warm.Cycles {
			t.Errorf("%s: metrics changed the warm cycle count (%d -> %d)", name, warm.Cycles, mStats.Cycles)
		}
		if err := obs.CheckConservation(mCl.MetricsDump()); err != nil {
			t.Errorf("%s: warm metrics dump: %v", name, err)
		}
	}
}
