// Command expd is the experiment control-plane daemon: a long-lived HTTP
// service that accepts api.ExperimentSpec submissions, runs them across the
// simulator and live backends with bounded concurrency, streams per-iteration
// metrics over SSE, and persists every result under -statedir so the record
// survives restarts.
//
// Usage:
//
//	expd -listen :7070 -statedir /var/lib/expd -concurrency 4
//
// Submit with the CLI (disttrain -server http://host:7070 ...) or plain curl:
//
//	curl -d '{"algo":"bsp","workers":4}' http://host:7070/v1/experiments
//
// See docs/CONTROLPLANE.md for the API reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disttrain/internal/ctlplane"
)

func main() {
	listen := flag.String("listen", ":7070", "HTTP listen address")
	stateDir := flag.String("statedir", "", "directory for persisted experiment artifacts (empty = in-memory only)")
	concurrency := flag.Int("concurrency", 4, "experiments run simultaneously")
	queueDepth := flag.Int("queue", 256, "accepted-but-not-started experiments held before submissions are rejected")
	flag.Parse()

	svc, err := ctlplane.NewService(ctlplane.ServiceOptions{
		StateDir:    *stateDir,
		Concurrency: *concurrency,
		QueueDepth:  *queueDepth,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "expd:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The service comes up before the listener binds, so the API never
	// accepts a submission the worker pool isn't ready to take.
	svc.Start(ctx)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "expd:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: ctlplane.NewMux(svc)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("expd: serving on %s (state %s, concurrency %d)\n",
		ln.Addr(), orDash(*stateDir), *concurrency)

	<-ctx.Done()
	fmt.Println("expd: shutting down (in-flight experiments drain; queued ones resume on restart)")
	// In-flight requests get a drain window; then the service's in-flight
	// experiments finish.
	drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(drain)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "expd: serve:", err)
	}
	<-svc.Done()
}

func orDash(s string) string {
	if s == "" {
		return "in-memory"
	}
	return s
}
