// Command clasrv is the analysis server: it accepts trace uploads (or
// server-local segment directories), runs critical lock analysis
// under a concurrency budget and serves JSON reports, with Prometheus
// metrics and live progress built in.
//
//	clasrv -addr :8126
//	curl -X POST --data-binary @trace.cltr localhost:8126/v1/analyze
//	curl -X POST 'localhost:8126/v1/analyze?segdir=/var/traces/segs'
//	curl localhost:8126/v1/reports
//	curl localhost:8126/metrics
//	curl localhost:8126/debug/progress
//
// Uploads and segment directories are opened and analyzed through
// internal/input, as cla opens files and directories. -mmap sets how
// segment files are read for every request; the query's one analysis
// knob is ?clip=.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests finish (up to the drain timeout) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"critlock/internal/cliflags"
	"critlock/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clasrv:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clasrv", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8126", "listen address")
		jobs    = cliflags.Jobs(fs)
		mmap    = cliflags.Mmap(fs)
		timeout = fs.Duration("timeout", 60*time.Second, "per-request analysis budget (queueing included)")
		upload  = fs.Int64("max-upload", 256<<20, "maximum trace upload size in bytes")
		cache   = fs.Int("cache", 64, "analysis reports retained for GET /v1/reports/{id}")
		drain   = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := serve.New(serve.Options{
		MaxConcurrent:  *jobs,
		MaxUploadBytes: *upload,
		Timeout:        *timeout,
		NoMmap:         !*mmap,
		CacheReports:   *cache,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("clasrv: listening on %s (POST /v1/analyze, GET /metrics)\n", *addr)

	select {
	case err := <-errCh:
		return err // immediate failure (e.g. the address is taken)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Println("clasrv: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
