package obs_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/obs"
	"softbrain/internal/workloads/machsuite"
)

// TestWritePrometheusRealDump renders a real run's metrics dump and
// requires the output to pass the exposition lint and to carry the
// load-bearing families.
func TestWritePrometheusRealDump(t *testing.T) {
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, _, err := inst.Run(context.Background(), cfg, false, func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	dump := cl.MetricsDump()

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, dump); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := obs.CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("exporter output failed its own lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE sd_unit_cycles gauge",
		"# TYPE sd_stall_cycles_total counter",
		`sd_stall_cycles_total{unit="0",component="dispatch"`,
		"# TYPE sd_mem_bytes_total counter",
		"# TYPE sd_dispatch_latency_cycles histogram",
		`sd_dispatch_latency_cycles_bucket{unit="0",le="+Inf"}`,
		`sd_stream_bytes_total{unit="0",kind="SD_Mem_Port"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"mem-bytes":        "mem_bytes",
		"dispatch-latency": "dispatch_latency",
		"ok_name:x":        "ok_name:x",
		"9lives":           "_9lives",
		"a b.c":            "a_b_c",
	}
	for in, want := range cases {
		if got := obs.PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCheckExposition pins the lint's verdicts on known-good and
// known-bad payloads — the in-process stand-in for promtool check
// metrics.
func TestCheckExposition(t *testing.T) {
	good := []string{
		"a_total 1\n",
		"# TYPE a_total counter\na_total{x=\"y\"} 1\na_total{x=\"z\"} 2\n# TYPE b gauge\nb 0.5\n",
		"# HELP h some help\n# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 7\nh_count 2\n",
		"esc{l=\"a\\\\b\\\"c\\nd\"} 1\n",
	}
	for i, g := range good {
		if err := obs.CheckExposition([]byte(g)); err != nil {
			t.Errorf("good[%d] rejected: %v\n%s", i, err, g)
		}
	}

	bad := map[string]string{
		"empty":            "",
		"no newline":       "a 1",
		"bad name":         "3bad 1\n",
		"bad label name":   "a{3x=\"v\"} 1\n",
		"unquoted label":   "a{x=y} 1\n",
		"bad value":        "a one\n",
		"unknown type":     "# TYPE a widget\na 1\n",
		"dup family":       "# TYPE a counter\n# TYPE a counter\na 1\n",
		"ungrouped":        "a 1\nb 2\na 3\n",
		"histogram no inf": "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n",
		"bucket decrease":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"bad escape":       "a{x=\"\\q\"} 1\n",
	}
	for name, b := range bad {
		if err := obs.CheckExposition([]byte(b)); err == nil {
			t.Errorf("bad payload %q accepted:\n%s", name, b)
		}
	}
}
