// Command sweepd runs the sweep service: a long-lived HTTP daemon that
// owns one shared measurement session per protocol over a persistent
// content-addressed store, serving concurrent sweep requests from
// cmd/sweep -server clients.
//
//	sweepd -addr :7077 -store ~/.cache/shaderopt-store
//
// Endpoints: POST /sweep (ndjson event stream), GET /healthz,
// GET /metricz (telemetry table). SIGINT/SIGTERM drain gracefully:
// in-flight sweeps complete, the store is synced, and the process exits
// zero.
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

	"shaderopt/internal/store"
	"shaderopt/internal/sweepd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address")
	storeDir := flag.String("store", "", "persistent store directory (empty disables persistence)")
	storeMaxMB := flag.Int64("store-max-mb", 0, "store size bound in MiB (0 = unbounded)")
	workers := flag.Int("workers", 0, "per-session worker pool size (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "max time to wait for in-flight sweeps on shutdown")
	flag.Parse()

	if err := run(*addr, *storeDir, *storeMaxMB, *workers, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run(addr, storeDir string, storeMaxMB int64, workers int, drainTimeout time.Duration) error {
	cfg := sweepd.Config{Workers: workers}
	if storeDir != "" {
		st, err := store.Open(storeDir, storeMaxMB<<20)
		if err != nil {
			return err
		}
		defer st.Close() // error paths; a drained run closes it below and checks
		cfg.Store = st
		log.Printf("store %s (%d entries, %d bytes)", st.Dir(), st.Len(), st.SizeBytes())
	}
	server := sweepd.New(cfg)

	httpSrv := server.HTTPServer(addr)
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (protocols: %v)", addr, sweepd.ProtocolNames())
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err // ListenAndServe never returns nil
	case sig := <-sigc:
		log.Printf("%s: draining (in-flight sweeps complete, then store sync)", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := server.Drain(); err != nil {
		return fmt.Errorf("store sync: %w", err)
	}
	if cfg.Store != nil {
		if err := cfg.Store.Close(); err != nil {
			return err
		}
	}
	log.Printf("drained; bye")
	return nil
}
