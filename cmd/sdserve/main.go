// sdserve runs the simulator as a hardened HTTP service: bounded
// worker pool, admission control with load shedding, per-request
// wall-clock deadlines, content-addressed result caching, and
// graceful drain on SIGTERM.
//
//	sdserve                      # serve on :8475 until SIGTERM/SIGINT
//	sdserve -addr :9000          # another port
//	sdserve -pprof               # also mount /debug/pprof/
//	sdserve -smoke               # in-process end-to-end self test (CI gate)
//
// Endpoints: POST /v1/run (submission; ?stream=1 for SSE progress),
// GET /v1/runs/{id}/events (attach to an in-flight run), GET /healthz,
// /readyz, /statusz (live run introspection), /metrics (Prometheus
// text exposition). Every request is logged structured to stderr with
// a request ID joinable to its run's events.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"softbrain/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8475", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = host cores)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 2x workers)")
	cacheN := flag.Int("cache", 256, "result cache entries (-1 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request wall-clock budget")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "ceiling on client-requested budgets")
	grace := flag.Duration("drain-grace", 15*time.Second, "how long SIGTERM lets in-flight runs finish")
	progress := flag.Duration("progress-every", 250*time.Millisecond, "heartbeat interval for streamed progress events")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "request log level (debug logs every progress heartbeat)")
	smoke := flag.Bool("smoke", false, "run the in-process self test and exit")
	flag.Parse()

	opts := serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheN,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainGrace:     *grace,
		ProgressEvery:  *progress,
		EnablePprof:    *pprofFlag,
	}

	switch {
	case *smoke:
		if err := serve.SelfTest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sdserve:", err)
			os.Exit(1)
		}
	default:
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			fmt.Fprintf(os.Stderr, "sdserve: bad -log-level %q: %v\n", *logLevel, err)
			os.Exit(2)
		}
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
		if err := run(*addr, opts); err != nil {
			fmt.Fprintln(os.Stderr, "sdserve:", err)
			os.Exit(1)
		}
	}
}

// run serves until SIGTERM or SIGINT, then drains: admission stops
// (fresh submissions get 503 + Retry-After), in-flight and queued runs
// get the grace window to finish, stragglers are canceled with a typed
// draining error, and the final counters are flushed to stderr.
func run(addr string, opts serve.Options) error {
	s := serve.New(opts)
	hs := &http.Server{Addr: addr, Handler: s}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sdserve: listening on %s\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "sdserve: %v: draining\n", got)
	}

	s.Drain() // every accepted run responds before this returns
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx) // best effort; idle keep-alive conns may linger
	hs.Close()

	c := s.Counters()
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sdserve: final counters:\n%s\n", data)
	if c.Panics != 0 {
		return fmt.Errorf("%d panics were contained during this run", c.Panics)
	}
	return nil
}
