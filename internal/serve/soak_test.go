package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSoak is the progen-issue soak: concurrent clients hammer the
// service with a mixed workload census, a chaos slice abandons its
// requests mid-run, and the acceptance bars are absolute — zero panics
// escape a request, nothing hangs, shed requests got a typed 429/503
// (they are *counted*, not lost), cache hits happen, and the server
// drains to zero goroutines afterwards.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	s := New(Options{Workers: 4, QueueDepth: 4, DrainGrace: 30 * time.Second})
	hs := httptest.NewServer(s)

	cfg := loadConfig{
		Clients:  8,
		Requests: 120,
		Workloads: []string{
			"gemm", "fft", "spmv-crs", "stencil2d", "gemm", "lut", "bfs", "gemm",
		},
		CancelEvery: 9, // every 9th request is abandoned mid-flight
		CancelAfter: 2 * time.Millisecond,
		StreamEvery: 4, // every 4th request takes the SSE streaming path
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := runLoad(ctx, hs.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d sent, %d ok (%d cached, %d deduped), %d shed, %d canceled, %d failed, %d retries",
		res.Sent, res.OK, res.CacheHits, res.Deduped, res.Shed, res.Canceled, res.Failed, res.Retries)
	t.Logf("soak stream: %d ok, %d progress frames", res.StreamOK, res.StreamProgress)

	if got := res.OK + res.Shed + res.Canceled + res.Failed; got != res.Sent {
		t.Errorf("outcome census %d != sent %d: every request must be accounted for", got, res.Sent)
	}
	if res.Failed != 0 {
		t.Errorf("%d deterministic failures from a census of valid workloads", res.Failed)
	}
	if res.OK == 0 {
		t.Error("no request succeeded")
	}
	if res.CacheHits == 0 {
		t.Error("no cache hit across repeated identical submissions")
	}
	if res.StreamOK == 0 {
		t.Error("no streamed request reached a terminal result")
	}

	c := s.Counters()
	if c.Panics != 0 {
		t.Errorf("%d panics escaped into requests", c.Panics)
	}

	// Graceful drain, then the goroutine census must return to the
	// pre-server baseline: no leaked workers, flights, or timers.
	s.Drain()
	hs.Close()
	hs.Client().CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after drain: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// loadConfig shapes a soak run.
type loadConfig struct {
	Clients     int           // concurrent client goroutines
	Requests    int           // total requests issued across all clients
	Workloads   []string      // request mix, assigned round-robin
	CancelEvery int           // every Nth request is abandoned mid-run (0 = never)
	CancelAfter time.Duration // how long a chaos request lives before abandonment
	StreamEvery int           // every Nth request uses the SSE streaming path (0 = never)
}

// loadResult is the outcome census of a soak run.
type loadResult struct {
	Sent      int
	OK        int
	CacheHits int
	Deduped   int
	Shed      int // gave up after retries on 429/503
	Canceled  int // chaos abandonments
	Failed    int // deterministic failures
	Retries   int

	StreamOK       int // streamed requests that reached a terminal result
	StreamProgress int // progress frames observed across streamed requests
}

// runLoad drives the service at baseURL with cfg.Clients concurrent
// reference clients and tallies every request's outcome.
func runLoad(ctx context.Context, baseURL string, cfg loadConfig) (*loadResult, error) {
	type outcome struct {
		ok, cached, deduped, shed, canceled, failed bool
		streamed                                    bool
		progress                                    int
		retries                                     int
	}
	jobs := make(chan int)
	outcomes := make([]outcome, cfg.Requests)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{BaseURL: baseURL}
			for n := range jobs {
				req := Request{Workload: cfg.Workloads[n%len(cfg.Workloads)]}
				o := &outcomes[n]
				rctx, rcancel := ctx, context.CancelFunc(func() {})
				chaos := cfg.CancelEvery > 0 && n%cfg.CancelEvery == cfg.CancelEvery-1
				if chaos {
					rctx, rcancel = context.WithTimeout(ctx, cfg.CancelAfter)
				}
				o.streamed = cfg.StreamEvery > 0 && n%cfg.StreamEvery == cfg.StreamEvery-1
				var resp *Response
				var err error
				if o.streamed {
					var out *StreamOutcome
					o.retries, err = cl.retry(rctx, func() (err error) {
						out, err = cl.SubmitStream(rctx, req)
						return err
					})
					if out != nil {
						o.progress = out.Progress
						resp = out.Resp
					}
				} else {
					resp, o.retries, err = cl.SubmitRetry(rctx, req)
				}
				abandoned := rctx.Err() != nil // read before rcancel poisons it
				rcancel()
				switch {
				case err == nil:
					o.ok = true
					o.cached = resp.Cached
					o.deduped = resp.Deduped
				case chaos && abandoned:
					o.canceled = true
				default:
					var ae *apiError
					if errors.As(err, &ae) && ae.Kind.Retryable() {
						o.shed = true
					} else {
						o.failed = true
					}
				}
			}
		}()
	}
	for n := 0; n < cfg.Requests; n++ {
		select {
		case jobs <- n:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return nil, context.Cause(ctx)
		}
	}
	close(jobs)
	wg.Wait()

	res := &loadResult{Sent: cfg.Requests}
	for i := range outcomes {
		o := &outcomes[i]
		res.Retries += o.retries
		res.StreamProgress += o.progress
		switch {
		case o.ok:
			res.OK++
			if o.streamed {
				res.StreamOK++
			}
			if o.cached {
				res.CacheHits++
			}
			if o.deduped {
				res.Deduped++
			}
		case o.canceled:
			res.Canceled++
		case o.shed:
			res.Shed++
		default:
			res.Failed++
		}
	}
	return res, nil
}
