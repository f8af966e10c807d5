// Command flashsimd serves flash caching simulations over HTTP:
// submitted runs execute on a bounded worker pool, stream telemetry and
// phase/event results live (NDJSON or SSE), accept fault injections into
// the running cluster, and finish with a flashsim-report/2 document.
//
//	flashsimd -listen :8080
//	curl -s localhost:8080/v1/runs -d '{"builtin":"crash-recovery","config":{"persistent":true}}'
//	curl -N localhost:8080/v1/runs/r1/stream
//	curl -s localhost:8080/v1/runs/r1/report
//
// See docs/SERVICE.md for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Connection limits. A client must finish sending its request headers
// within readHeaderTimeout, and an idle keep-alive connection is closed
// after idleTimeout, so a client that trickles header bytes or parks a
// connection cannot hold it forever. There is deliberately no
// WriteTimeout: run streams stay open for the whole run.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	listen := flag.String("listen", ":8080", "address to serve HTTP on")
	maxRuns := flag.Int("max-runs", 0, "run table capacity, pending+running+finished (0 = default 64)")
	maxConcurrent := flag.Int("max-concurrent", 0, "runs executing simultaneously (0 = GOMAXPROCS)")
	maxBody := flag.Int64("max-body", 0, "request body size limit in bytes (0 = default 1MiB)")
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxRuns:         *maxRuns,
		MaxConcurrent:   *maxConcurrent,
		MaxRequestBytes: *maxBody,
	})
	hs := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("flashsimd listening on %s", *listen)

	select {
	case err := <-errc:
		die(err)
	case <-ctx.Done():
		log.Printf("flashsimd shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("flashsimd: shutdown: %v", err)
		}
		srv.Close()
	}
}

func die(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "flashsimd: %v\n", err)
		os.Exit(1)
	}
}
