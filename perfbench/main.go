// Command perfbench is the repository benchmark: end-to-end and
// per-layer host cost of the Softbrain simulator and its HTTP service.
//
//	bash perfbench/run.sh --workload sim-batch --seed 1 --seconds 30 --trace 0
//
// It runs from the repository root, builds every input from --seed,
// measures for --seconds, checks every output, and prints one JSON
// object as the last line of standard output: the end-to-end metrics of
// BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
// A failed correctness or shape check prints the result with
// "correct": false and exits 1. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run hands back to main: operation
// counts, the end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs), and every correctness or shape violation seen.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	problems          []string
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	const keep = 20 // enough to diagnose; a systematic fault repeats
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	mem      *memSampler // running from start-up; a run stops it when timing ends
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "sim-batch, serve-cold or serve-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: shuffles entry and request order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured wall time")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}

	cfg.mem = startMemSampler()
	var out *outcome
	switch cfg.workload {
	case "sim-batch":
		out, err = runSimBatch(cfg)
	case "serve-cold":
		out, err = runServe(cfg, false)
	case "serve-hot":
		out, err = runServe(cfg, true)
	default:
		fatalf("unknown --workload %q (sim-batch, serve-cold, serve-hot)", cfg.workload)
	}
	cfg.mem.halt()
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}

	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	if err := complete(out, want); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", cfg.workload, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// specMetric is one metric declaration in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric declarations: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// complete makes the reported set exactly the declared set: a declared
// per-layer metric whose layer this workload does not exercise reads 0,
// an end-to-end metric may not be missing, and an undeclared or
// wrongly-unitted metric is a benchmark bug.
func complete(o *outcome, want []specMetric) error {
	declared := map[string]string{}
	for _, m := range want {
		declared[m.Name] = m.Unit
		got, ok := o.metrics[m.Name]
		switch {
		case !ok && endToEnd[m.Name]:
			return fmt.Errorf("end-to-end metric %s not measured", m.Name)
		case !ok:
			o.set(m.Name, m.Unit, 0)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range o.metrics {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// endToEnd names the metrics every workload must measure itself.
var endToEnd = map[string]bool{
	"setup_s": true, "mem_mb": true, "sim_cycles": true,
	"ns_per_cycle": true, "cluster_ns_per_cycle": true,
	"req_p50_ms": true, "req_p99_ms": true, "req_per_s": true,
}

// latency is a workload's request latency summary: nearest-rank p50
// and p99 in ms, over the number of samples behind them.
type latency struct {
	p50, p99 float64
	samples  int
}

// latencyOf summarizes a pooled set of request latencies.
func latencyOf(lat []time.Duration) latency {
	ms := durMillis(lat)
	return latency{quantile(ms, 0.50), quantile(ms, 0.99), len(ms)}
}

// setEndToEnd fills the metrics every workload reports the same way.
// memMB is read when timing ends, before the analysis allocates.
func (o *outcome) setEndToEnd(setups []time.Duration, memMB float64, lat latency, perSec float64, simCycles uint64, unitNs, clusterNs []float64) {
	o.set("setup_s", "s", median(durSeconds(setups)))
	o.set("mem_mb", "MB", memMB)
	o.set("sim_cycles", "cycles", float64(simCycles))
	o.set("ns_per_cycle", "ns/cycle", geomean(unitNs))
	o.set("cluster_ns_per_cycle", "ns/cycle", geomean(clusterNs))
	o.set("req_p50_ms", "ms", lat.p50)
	o.set("req_p99_ms", "ms", lat.p99)
	o.set("req_per_s", "1/s", perSec)
	fmt.Fprintf(os.Stderr, "perfbench: p50 and p99 over %d samples\n", lat.samples)
}

// memSampler samples the memory the Go runtime holds from the OS
// (everything it has mapped, less what it has returned) every 10 ms.
// Its median is the process's footprint. The peak resident set spread
// by 28% between runs of one workload, because of the kernel's own page
// handling, and the peak of these samples by 50%, because the heap
// spikes briefly at random moments under a high allocation rate.
type memSampler struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	mb       []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			held := samples[0].Value.Uint64() - samples[1].Value.Uint64()
			m.mb = append(m.mb, float64(held)/(1<<20))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// halt stops the sampler and waits for it; later calls do nothing.
func (m *memSampler) halt() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// median stops the sampler and returns the median sample.
func (m *memSampler) median() float64 {
	m.halt()
	return median(m.mb)
}

// chunked is an append-only list kept in fixed-size chunks. Growing it
// never copies, so the benchmark's own bookkeeping adds no garbage that
// would move the memory it measures.
type chunked[T any] struct{ chunks [][]T }

func (c *chunked[T]) add(x T) {
	if n := len(c.chunks); n == 0 || len(c.chunks[n-1]) == cap(c.chunks[n-1]) {
		c.chunks = append(c.chunks, make([]T, 0, 1024))
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, x)
}

func (c *chunked[T]) all() []T {
	var out []T
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func durMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
