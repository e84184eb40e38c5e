package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans are recorded from outside, around public functions;
// the layer is the name's prefix before the first dot. "bench.*" spans
// are the benchmark's own structure: a pass or request root, and
// groupings inside it.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`    // shared by every span of one pass or request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one goroutine's spans in memory. A nil recorder
// records nothing, which is how untraced runs stay untraced.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its ID (-1 when not recording).
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// add records an already-timed span (times from time.Now readings).
func (r *recorder) add(name string, parent int32, req int64, start, end time.Time) {
	if r == nil || start.IsZero() || end.IsZero() {
		return
	}
	r.spans = append(r.spans, span{ID: int32(len(r.spans)), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// ledger is the per-layer account of a traced run: the self time of
// every layer, and how much of each root (pass or request) the layer
// spans cover.
type ledger struct {
	roots       int
	rootNs      int64
	selfNs      map[string]int64 // layer -> self time
	uncoveredNs int64            // root time outside every layer span
	minCoverage float64          // lowest covered share of any one root
	covered95   int              // roots at least 95% covered
}

// account builds the ledger over the roots named rootName in recs.
func account(recs []*recorder, rootName string) ledger {
	l := ledger{selfNs: map[string]int64{}, minCoverage: 1}
	for _, r := range recs {
		children := make([][]int32, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], s.ID)
			}
		}
		for _, s := range r.spans {
			if s.Parent >= 0 || s.Name != rootName {
				continue
			}
			dur := s.End - s.Start
			l.roots++
			l.rootNs += dur
			var layerSpans []span
			var walk func(id int32)
			walk = func(id int32) {
				sp := r.spans[id]
				var kids []span
				for _, c := range children[id] {
					kids = append(kids, r.spans[c])
					walk(c)
				}
				self := (sp.End - sp.Start) - union(kids)
				l.selfNs[layerOf(sp.Name)] += self
				if id != s.ID && layerOf(sp.Name) != "bench" {
					layerSpans = append(layerSpans, sp)
				}
			}
			walk(s.ID)
			covered := union(layerSpans)
			l.uncoveredNs += dur - covered
			if dur > 0 {
				c := float64(covered) / float64(dur)
				if c < l.minCoverage {
					l.minCoverage = c
				}
				if c >= 0.95 {
					l.covered95++
				}
			}
		}
	}
	return l
}

// set reports the ledger as per-layer metrics.
func (l ledger) set(o *outcome, layers []string) {
	if l.roots == 0 {
		return
	}
	for _, layer := range layers {
		o.set("trace.self_share."+layer, "ratio", float64(l.selfNs[layer])/float64(l.rootNs))
	}
	// Layer spans must account for the roots' time. A single root dips
	// lower when the benchmark's goroutine waits for a core between two
	// spans, so the gate is on the total; the share of roots covered
	// 95% or more, and the worst one, are reported.
	if share := float64(l.uncoveredNs) / float64(l.rootNs); share > 0.05 {
		o.problem("trace: layer spans leave %.1f%% of the roots uncovered (limit 5%%)", 100*share)
	}
	o.set("trace.coverage_min", "ratio", l.minCoverage)
	o.set("trace.covered_roots_share", "ratio", float64(l.covered95)/float64(l.roots))
	o.set("trace.uncovered_share", "ratio", float64(l.uncoveredNs)/float64(l.rootNs))
	o.set("trace.roots", "count", float64(l.roots))
}

// traceLayers are the layers whose self time the ledger reports.
var traceLayers = []string{"bench", "workloads", "core", "sim", "wire", "serve", "stream", "http"}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// union is the total length of the union of the spans' intervals.
func union(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	curS, curE := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// writeSpans writes every recorder's spans, one JSON array per
// recorder, under the build directory of the checkout.
func writeSpans(workload string, seed int64, recs []*recorder) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	all := make([][]span, len(recs))
	for i, r := range recs {
		all[i] = r.spans
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return os.WriteFile(path, data, 0o644)
}
