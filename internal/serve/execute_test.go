package serve

import (
	"context"
	"testing"

	"softbrain/internal/wire"
	"softbrain/internal/workloads/catalog"
)

// wireGemm is the gemm workload's program in wire form: the same
// commands as the named workload, but no input image and no golden
// model.
func wireGemm(t *testing.T) *wire.Program {
	t.Helper()
	inst, _, err := catalog.Build("gemm", 1)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := wire.FromProgram(inst.Progs[0])
	if err != nil {
		t.Fatal(err)
	}
	return &wp
}

// TestExecuteOutcomes covers the branches of the single execute path.
// A corrupting fault profile is served with verified false: the golden
// mismatch is the expected fault effect, not a failure. A
// non-corrupting profile still verifies. A wire program runs on one
// unit and, having no golden model, is never reported verified.
func TestExecuteOutcomes(t *testing.T) {
	_, _, cl := newTestServer(t, Options{Workers: 2})
	seed := int64(1)
	cases := []struct {
		name     string
		req      Request
		units    int
		verified bool
	}{
		{"named", Request{Workload: "gemm"}, 1, true},
		{"bitflip", Request{Workload: "gemm", Faults: &FaultsBlock{Profile: "bitflip", Seed: &seed}}, 1, false},
		{"delay", Request{Workload: "gemm", Faults: &FaultsBlock{Profile: "delay", Seed: &seed}}, 1, true},
		{"cluster", Request{Workload: "class1p"}, 8, true},
		{"wire", Request{Program: wireGemm(t)}, 1, false},
	}
	for _, c := range cases {
		resp, err := cl.Submit(context.Background(), c.req)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if resp.Units != c.units || resp.Verified != c.verified || resp.Cycles == 0 || resp.Cached {
			t.Errorf("%s: got units %d verified %v cycles %d cached %v; want units %d verified %v",
				c.name, resp.Units, resp.Verified, resp.Cycles, resp.Cached, c.units, c.verified)
		}
	}
}

// TestWireWarmMetrics checks that options.warm leaves a wire program
// measured on its one run: the response matches the cold run's cycles,
// and warm with metrics answers 200 with a conserving stall dump.
func TestWireWarmMetrics(t *testing.T) {
	_, _, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	wp := wireGemm(t)
	cold, err := cl.Submit(ctx, Request{Program: wp})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Submit(ctx, Request{Program: wp, Options: RunOptions{Warm: true, Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached || warm.Cycles != cold.Cycles || len(warm.Metrics) == 0 {
		t.Fatalf("warm+metrics: %d cycles (cached %v, %d metrics bytes), cold run %d cycles",
			warm.Cycles, warm.Cached, len(warm.Metrics), cold.Cycles)
	}
}

// TestNamedWarmMetrics checks that a named workload honours
// options.warm together with metrics: the answer is a verified 200
// whose statistics cover the measured run only — fewer cycles than the
// cold run, the same work.
func TestNamedWarmMetrics(t *testing.T) {
	_, _, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	cold, err := cl.Submit(ctx, Request{Workload: "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Submit(ctx, Request{Workload: "gemm", Options: RunOptions{Warm: true, Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Verified || warm.Cached || len(warm.Metrics) == 0 {
		t.Fatalf("warm+metrics: verified %v, cached %v, %d metrics bytes", warm.Verified, warm.Cached, len(warm.Metrics))
	}
	if warm.Cycles >= cold.Cycles || warm.Stats.Instances != cold.Stats.Instances {
		t.Errorf("warm+metrics: %d cycles, %d instances; cold run %d cycles, %d instances",
			warm.Cycles, warm.Stats.Instances, cold.Cycles, cold.Stats.Instances)
	}
}
