package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/serve"
	"softbrain/internal/wire"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// clients is the closed loop's client count: one per core of the
// 2-core host the benchmark was sized on. Each client waits for its
// reply before sending the next request, as sdserve callers do.
const clients = 2

// wirePrograms are the programs serve-hot submits in the wire format.
var wirePrograms = []string{"gemm", "stencil2d", "fft"}

// longRun reports whether the named workload's run at the given scale
// spans at least two heartbeat strides (2×4096 run-loop iterations).
// The run loop consults the heartbeat only once per stride, so a
// shorter run cannot emit a progress frame whatever the progress
// interval; only these runs are streamed on serve-cold.
func longRun(name string, scale int) bool {
	return name == "class1p" || (scale >= 2 && (name == "gemm" || name == "viterbi"))
}

// namedWorkloads is every named workload a serve client requests: the
// single-unit MachSuite and extension codes, and class1p on the 8-unit
// DNN cluster.
func namedWorkloads() []string {
	var names []string
	for _, e := range machsuite.All() {
		names = append(names, e.Name)
	}
	for _, e := range ext.All() {
		names = append(names, e.Name)
	}
	return append(names, "class1p")
}

// request is one generated submission.
type request struct {
	req     serve.Request
	key     string // kind/name/scale: every response for it reports the same cycles
	wire    bool
	stream  bool
	metrics bool
	cluster bool   // runs on a multi-unit cluster
	want    uint64 // wire programs: the cycles a local run reports
}

// reqRecord is one completed request.
type reqRecord struct {
	r        *request
	lat      time.Duration
	simMS    float64 // server simulation time; 0 for a cache hit
	cycles   uint64
	progress int
	ttfb     time.Duration // traced only: until response headers
	first    time.Duration // traced only: until the first body byte
	bytes    int64         // traced only: response body size
	traced   bool
}

// coldRequests is client c's request cycle on serve-cold: every named
// workload at scale c+1, four times. Every 4th request asks for the
// metrics dump, one of each workload's four; the long runs stream.
func coldRequests(rng *rand.Rand, c int) []*request {
	names := namedWorkloads()
	scale := c + 1
	named := func(metrics bool) func(i int) *request {
		return func(i int) *request {
			return &request{
				req:     serve.Request{Workload: names[i], Scale: scale, Options: serve.RunOptions{Metrics: metrics}},
				key:     fmt.Sprintf("named/%s/%d", names[i], scale),
				metrics: metrics,
				stream:  longRun(names[i], scale),
				cluster: names[i] == "class1p",
			}
		}
	}
	return interleave(
		rounds(rng, 1, len(names), named(false)),
		rounds(rng, 1, len(names), named(true)),
		rounds(rng, 1, len(names), named(false)),
		rounds(rng, 1, len(names), named(false)))
}

// hotRequests is a client's request cycle on serve-hot: scale-1 named
// workloads, with every 4th request one of the wire programs, and every
// 4th, at another offset, asking for the metrics dump.
func hotRequests(rng *rand.Rand, wires []*request) []*request {
	names := namedWorkloads()
	named := func(metrics bool) func(i int) *request {
		return func(i int) *request {
			return &request{
				req:     serve.Request{Workload: names[i], Scale: 1, Options: serve.RunOptions{Metrics: metrics}},
				key:     fmt.Sprintf("named/%s/1", names[i]),
				metrics: metrics,
				cluster: names[i] == "class1p",
			}
		}
	}
	// Lanes of 39 requests: each program or workload equally often.
	return interleave(
		rounds(rng, 3, len(names), named(false)),
		rounds(rng, 3, len(names), named(true)),
		rounds(rng, 3, len(names), named(false)),
		rounds(rng, 13, len(wires), func(i int) *request { return wires[i] }))
}

// rounds is n seeded orders of the count requests made by mk, one after
// another: the seed changes the order, never the mix.
func rounds(rng *rand.Rand, n, count int, mk func(i int) *request) []*request {
	var out []*request
	for k := 0; k < n; k++ {
		for _, i := range rng.Perm(count) {
			out = append(out, mk(i))
		}
	}
	return out
}

// interleave lays out a request cycle from equal-length lanes: request
// n comes from lane n mod len(lanes).
func interleave(lanes ...[]*request) []*request {
	var out []*request
	for k := range lanes[0] {
		for _, lane := range lanes {
			out = append(out, lane[k])
		}
	}
	return out
}

// server is one in-process sdserve instance on a loopback port.
type server struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	served   chan error
	plain    *http.Transport
	fromWire []float64 // ms per wire.FromProgram call at set-up
}

func startServer(hot bool) (*server, error) {
	opts := serve.Options{}
	if !hot {
		// Every request simulates: no result cache, and a progress frame
		// at every heartbeat stride.
		opts.CacheEntries = -1
		opts.ProgressEvery = -1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(opts), base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.plain = http.DefaultTransport.(*http.Transport).Clone()
	s.plain.MaxIdleConnsPerHost = 2 * clients
	if _, err := s.get("/healthz"); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the service, closes the listener and waits for both.
func (s *server) stop() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // Drain already finished every run; nothing to report
	<-s.served
	s.plain.CloseIdleConnections()
}

func (s *server) get(path string) (string, error) {
	resp, err := (&http.Client{Transport: s.plain}).Get(s.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(data), nil
}

// scrape reads the unlabelled samples of /metrics.
func (s *server) scrape() (map[string]float64, error) {
	text, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// wireRequests builds the wire programs at set-up: each is built, run
// locally once for its expected cycle count, and encoded.
func (s *server) wireRequests(rec *recorder, root int32) ([]*request, error) {
	var out []*request
	for _, name := range wirePrograms {
		build, err := builder(name)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		id := rec.begin("workloads.Build", root, 0)
		inst, err := build(cfg, 1)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		prog := inst.Progs[0]
		id = rec.begin("core.NewCluster", root, 0)
		cl, err := core.NewCluster(cfg, 1)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("core.RunContext", root, 0)
		stats, err := cl.RunContext(context.Background(), []*core.Program{prog})
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("running the %s wire program locally: %w", name, err)
		}
		t0 := time.Now()
		id = rec.begin("wire.FromProgram", root, 0)
		wp, err := wire.FromProgram(prog)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		s.fromWire = append(s.fromWire, float64(time.Since(t0).Nanoseconds())/1e6)
		out = append(out, &request{
			req:  serve.Request{Program: &wp},
			key:  "wire/" + name,
			wire: true,
			want: stats.Cycles,
		})
	}
	return out, nil
}

// builder finds a single-unit workload among the MachSuite and
// extension codes.
func builder(name string) (func(core.Config, int) (*workloads.Instance, error), error) {
	if e, err := machsuite.Find(name); err == nil {
		return e.Build, nil
	}
	e, err := ext.Find(name)
	if err != nil {
		return nil, err
	}
	return e.Build, nil
}

// probe times one request from inside the HTTP transport: when the
// response headers arrived, when the first body byte and the end of
// the body were read, and how many bytes the body held.
type probe struct {
	start, headers, first, end time.Time
	bytes                      int64
}

// probedTransport fills a client's probe around every round trip. A
// client sends one request at a time, so its probe is never shared.
type probedTransport struct {
	base http.RoundTripper
	p    *probe
}

func (t *probedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	*t.p = probe{start: time.Now()}
	resp, err := t.base.RoundTrip(r)
	t.p.headers = time.Now()
	if resp != nil {
		resp.Body = &probedBody{ReadCloser: resp.Body, p: t.p}
	}
	return resp, err
}

type probedBody struct {
	io.ReadCloser
	p *probe
}

func (b *probedBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	if n > 0 && b.p.first.IsZero() {
		b.p.first = time.Now()
	}
	b.p.bytes += int64(n)
	if err != nil && b.p.end.IsZero() {
		b.p.end = time.Now()
	}
	return n, err
}

func (b *probedBody) Close() error {
	if b.p.end.IsZero() {
		b.p.end = time.Now()
	}
	return b.ReadCloser.Close()
}

// checker holds the first cycle count reported for every key, across
// both clients, and the per-workload shape rules.
type checker struct {
	mu     sync.Mutex
	cycles map[string]uint64
	hot    bool
}

// check validates one response.
func (ck *checker) check(r *request, resp *serve.Response, progress int) error {
	switch {
	case !r.wire && !resp.Verified:
		return errors.New("response not verified against the golden model")
	case r.wire && resp.Cycles != r.want:
		return fmt.Errorf("%d cycles, the local run took %d", resp.Cycles, r.want)
	case !ck.hot && (resp.Cached || resp.Deduped):
		return errors.New("served from the cache or a shared flight on serve-cold")
	case r.stream && progress < 1:
		return errors.New("streamed run saw no progress frame")
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if first, ok := ck.cycles[r.key]; ok && first != resp.Cycles {
		return fmt.Errorf("%d cycles, the first response for this key reported %d", resp.Cycles, first)
	} else if !ok {
		ck.cycles[r.key] = resp.Cycles
	}
	return nil
}

// submit sends one request through the reference client and checks
// the response.
func submit(ctx context.Context, cl *serve.Client, ck *checker, r *request, rec *recorder, p *probe, req int64) (reqRecord, error) {
	out := reqRecord{r: r}
	if p != nil {
		*p = probe{}
	}
	root := rec.begin("bench.request", -1, req)
	t0 := time.Now()
	var resp *serve.Response
	var err error
	name := "serve.Client.Submit"
	if r.stream {
		name = "stream.Client.SubmitStream"
	}
	call := rec.begin(name, root, req)
	if r.stream {
		var so *serve.StreamOutcome
		so, err = cl.SubmitStream(ctx, r.req)
		if so != nil {
			resp, out.progress = so.Resp, so.Progress
		}
	} else {
		resp, err = cl.Submit(ctx, r.req)
	}
	rec.end(call)
	out.lat = time.Since(t0)
	if p != nil {
		rec.add("http.roundtrip", call, req, p.start, p.headers)
		rec.add("http.body", call, req, p.headers, p.end)
		out.ttfb, out.first, out.bytes = p.headers.Sub(p.start), p.first.Sub(p.start), p.bytes
	}
	if err == nil {
		id := rec.begin("bench.check", root, req)
		err = ck.check(r, resp, out.progress)
		rec.end(id)
	}
	rec.end(root)
	if err != nil {
		return out, err
	}
	out.cycles = resp.Cycles
	if !resp.Cached {
		out.simMS = resp.SimMS
	}
	return out, nil
}

// loop is one client of the closed loop.
type loop struct {
	cl    *serve.Client
	rec   *recorder
	p     *probe
	reqs  []*request
	next  int
	id    int
	recs  chunked[reqRecord]
	fails []string
	tried int
}

func runServe(cfg config, hot bool) (*outcome, error) {
	out := &outcome{}
	epoch := time.Now()
	var setupRec *recorder
	if cfg.trace {
		setupRec = newRecorder(epoch)
	}
	ck := &checker{cycles: map[string]uint64{}, hot: hot}
	ctx := context.Background()

	// Set-up, repeated: start the service, encode the wire programs,
	// open each client's connection, and warm up.
	var s *server
	var loops []*loop
	var setups []time.Duration
	for rep := 0; rep < setupRepeats; rep++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		root := setupRec.begin("bench.setup", -1, int64(rep))
		var err error
		if s, err = startServer(hot); err != nil {
			return nil, err
		}
		var wires []*request
		if hot {
			if wires, err = s.wireRequests(setupRec, root); err != nil {
				s.stop()
				return nil, err
			}
		}
		loops = loops[:0]
		for c := 0; c < clients; c++ {
			l := &loop{id: c, p: &probe{}}
			r := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c)))
			if hot {
				l.reqs = hotRequests(r, wires)
			} else {
				l.reqs = coldRequests(r, c)
			}
			l.cl = &serve.Client{BaseURL: s.base, HTTP: &http.Client{Transport: s.plain}}
			loops = append(loops, l)
		}
		if err := warmUp(ctx, loops, ck, hot); err != nil {
			s.stop()
			return nil, err
		}
		setupRec.end(root)
		setups = append(setups, time.Since(start))
	}
	defer s.stop()

	// Both clients run for --seconds. A traced run records spans on
	// every other cycle of a client's requests; the untraced cycles
	// between them give the overhead.
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	begin := time.Now()
	for _, l := range loops {
		plain := &http.Client{Transport: s.plain}
		probed := &http.Client{Transport: &probedTransport{base: s.plain, p: l.p}}
		if cfg.trace {
			l.rec = newRecorder(epoch)
		}
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			for time.Since(begin) < seconds(cfg.seconds) {
				r := l.reqs[l.next%len(l.reqs)]
				traced := cfg.trace && (l.next/len(l.reqs))%2 == 1
				rec, p := l.rec, l.p
				l.cl.HTTP = probed
				if !traced {
					rec, p = nil, nil
					l.cl.HTTP = plain
				}
				rr, err := submit(ctx, l.cl, ck, r, rec, p, int64(l.id)<<32|int64(l.next))
				l.next++
				l.tried++
				if err != nil {
					l.fails = append(l.fails, fmt.Sprintf("client %d %s: %v", l.id, r.key, err))
					continue
				}
				rr.traced = traced
				l.recs.add(rr)
			}
		}(l)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	mem := cfg.mem.median()
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	var plain, traced []reqRecord
	for _, l := range loops {
		for _, r := range l.recs.all() {
			if r.traced {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		out.attempted += l.tried
		out.failed += len(l.fails)
		for _, f := range l.fails {
			out.problem("%s", f)
		}
	}
	checkShape(out, hot, out.attempted, append(plain, traced...), delta)

	if !cfg.trace {
		lat := make([]time.Duration, len(plain))
		for i, r := range plain {
			lat[i] = r.lat
		}
		unitNs, clusterNs, cycles := perKey(plain)
		out.setEndToEnd(setups, mem, latencyOf(lat), float64(len(lat))/elapsed.Seconds(), cycles, unitNs, clusterNs)
		return out, nil
	}

	setServeLayers(out, traced, delta, out.attempted)
	if len(plain) > 0 && len(traced) > 0 {
		out.set("trace.overhead_share", "ratio", meanLat(traced)/meanLat(plain)-1)
	}
	if hot {
		out.set("wire.from_program_ms", "ms", median(s.fromWire))
	}
	recs := []*recorder{setupRec}
	for _, l := range loops {
		recs = append(recs, l.rec)
	}
	account(recs, "bench.request").set(out, traceLayers)
	if err := writeSpans(cfg.workload, cfg.seed, recs); err != nil {
		return nil, err
	}
	return out, nil
}

// warmUp runs before timing starts. On serve-cold each client
// simulates each of its workloads once; on serve-hot every distinct
// request of both clients is submitted once, split between the
// clients, which fills the result cache.
func warmUp(ctx context.Context, loops []*loop, ck *checker, hot bool) error {
	work := make([][]*request, len(loops))
	if hot {
		// Dealt in key order, so the split, and with it the set-up
		// time, does not depend on the seed.
		distinct := map[string]*request{}
		var keys []string
		for _, l := range loops {
			for _, r := range l.reqs {
				k := fmt.Sprintf("%s/%v", r.key, r.metrics)
				if distinct[k] == nil {
					distinct[k] = r
					keys = append(keys, k)
				}
			}
		}
		sort.Strings(keys)
		for n, k := range keys {
			work[n%len(loops)] = append(work[n%len(loops)], distinct[k])
		}
	} else {
		for c := range loops {
			for _, name := range namedWorkloads() {
				work[c] = append(work[c], &request{
					req: serve.Request{Workload: name, Scale: c + 1},
					key: fmt.Sprintf("named/%s/%d", name, c+1),
				})
			}
		}
	}
	errs := make([]error, len(loops))
	var wg sync.WaitGroup
	for c, l := range loops {
		wg.Add(1)
		go func(c int, l *loop) {
			defer wg.Done()
			for _, r := range work[c] {
				if _, err := submit(ctx, l.cl, ck, r, nil, nil, 0); err != nil {
					errs[c] = fmt.Errorf("warm-up %s: %w", r.key, err)
					return
				}
			}
		}(c, l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkShape asserts what each serve workload is for: on serve-cold
// every request is admitted and simulated, none answered by the cache
// or a shared flight; on serve-hot at least 99% are cache hits.
func checkShape(out *outcome, hot bool, tried int, recs []reqRecord, delta map[string]float64) {
	if delta["serve_shed_total"] != 0 {
		out.problem("shape: %v requests shed", delta["serve_shed_total"])
	}
	if hot {
		if ratio := delta["serve_cache_hits_total"] / float64(tried); ratio < 0.99 {
			out.problem("shape: cache hit ratio %.4f below 0.99 on serve-hot", ratio)
		}
		return
	}
	if got := delta["serve_accepted_total"]; got != float64(tried) {
		out.problem("shape: %v requests accepted, %d sent", got, tried)
	}
	if hits, dedup := delta["serve_cache_hits_total"], delta["serve_deduped_total"]; hits != 0 || dedup != 0 {
		out.problem("shape: %v cache hits and %v dedups on serve-cold", hits, dedup)
	}
	streamed := 0
	for _, r := range recs {
		if r.r.stream {
			streamed++
		}
	}
	if streamed == 0 {
		out.problem("shape: no streamed request completed")
	}
}

// perKey is the host time per simulated cycle of every distinct
// request key (median latency over the key's requests, over its
// cycles), split into single-unit and cluster keys, and the simulated
// cycles summed over the distinct keys.
func perKey(recs []reqRecord) (unitNs, clusterNs []float64, cycles uint64) {
	type acc struct {
		lat     []float64
		cycles  uint64
		cluster bool
	}
	keys := map[string]*acc{}
	var order []string
	for _, r := range recs {
		a := keys[r.r.key]
		if a == nil {
			a = &acc{cycles: r.cycles, cluster: r.r.cluster}
			keys[r.r.key] = a
			order = append(order, r.r.key)
		}
		a.lat = append(a.lat, float64(r.lat.Nanoseconds()))
	}
	for _, k := range order {
		a := keys[k]
		cycles += a.cycles
		v := median(a.lat) / float64(a.cycles)
		if a.cluster {
			clusterNs = append(clusterNs, v)
		} else {
			unitNs = append(unitNs, v)
		}
	}
	return unitNs, clusterNs, cycles
}

// setServeLayers reports the service and stream layers: latencies
// over the traced requests, counter ratios over all sent requests.
func setServeLayers(out *outcome, recs []reqRecord, delta map[string]float64, sent int) {
	var sim, overhead, named, wires, metrics, ttfb, kb, first, frames []float64
	for _, r := range recs {
		ms := float64(r.lat.Nanoseconds()) / 1e6
		sim = append(sim, r.simMS)
		overhead = append(overhead, ms-r.simMS)
		switch {
		case r.r.wire:
			wires = append(wires, ms)
		case r.r.metrics:
			metrics = append(metrics, ms)
		default:
			named = append(named, ms)
		}
		ttfb = append(ttfb, float64(r.ttfb.Nanoseconds())/1e6)
		kb = append(kb, float64(r.bytes)/1024)
		if r.r.stream {
			first = append(first, float64(r.first.Nanoseconds())/1e6)
			frames = append(frames, float64(r.progress))
		}
	}
	n := float64(sent)
	out.set("bench.samples", "count", float64(len(recs)))
	out.set("serve.sim_ms_p50", "ms", median(sim))
	out.set("serve.overhead_ms_p50", "ms", median(overhead))
	out.set("serve.named_p50_ms", "ms", median(named))
	out.set("serve.wire_p50_ms", "ms", median(wires))
	out.set("serve.metrics_p50_ms", "ms", median(metrics))
	out.set("serve.ttfb_ms_p50", "ms", median(ttfb))
	out.set("serve.resp_kb", "KB", mean(kb))
	out.set("serve.cache_hit_ratio", "ratio", delta["serve_cache_hits_total"]/n)
	out.set("serve.dedup_ratio", "ratio", delta["serve_deduped_total"]/n)
	out.set("serve.shed", "count", delta["serve_shed_total"])
	if total := delta["serve_sched_cycles_total"] + delta["serve_sched_skipped_cycles_total"]; total > 0 {
		out.set("serve.sched_ticks_per_cycle", "ticks/cycle", delta["serve_sched_comp_ticks_total"]/total)
	}
	out.set("stream.first_frame_ms_p50", "ms", median(first))
	out.set("stream.progress_frames", "count", mean(frames))
}

func meanLat(recs []reqRecord) float64 {
	ds := make([]time.Duration, len(recs))
	for i, r := range recs {
		ds[i] = r.lat
	}
	return meanDur(ds)
}
