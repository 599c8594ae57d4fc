// Command awdserve runs the fleet detection engine as a long-lived
// network service: clients open per-tenant detector streams, ingest
// samples over the compact binary protocol (or the HTTP/JSON fallback),
// and receive each sample's decision in request order. One goroutine
// serves each binary connection: it decides the samples of every ingest
// frame already whole in its read buffer as one batch, writes one
// response per frame, and flushes whenever the client has sent no
// further whole frame. Checkpoint, drain, and restore RPCs persist the whole fleet's
// runtime state through the internal/state codec, so a killed server
// restarted with -restore-from continues every decision stream
// bit-identically to one that never died.
//
// Usage:
//
//	awdserve -addr :7601 -checkpoint-dir /var/lib/awd
//	awdserve -addr :7601 -http-addr :7602 -max-streams-per-tenant 1000
//	awdserve -addr :7601 -checkpoint-dir /var/lib/awd -restore-from fleet.awds
//
// On SIGINT/SIGTERM the server drains ingest, writes a final checkpoint
// (when -checkpoint-dir is set), closes the connections still open, and
// exits cleanly.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:0", "TCP address for the binary wire protocol")
		httpAddr    = flag.String("http-addr", "", "optional address for the HTTP/JSON fallback API")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for checkpoint/restore snapshots (empty disables them)")
		restoreFrom = flag.String("restore-from", "", "checkpoint filename under -checkpoint-dir to restore at boot")
		maxPerTen   = flag.Int("max-streams-per-tenant", 0, "per-tenant open-stream quota (0 = unlimited)")
		workers     = flag.Int("workers", 0, "shard-processing goroutines for Post samples and the earlier shards of a batch; a synchronous submit steps the shard its last sample wakes itself (0 = GOMAXPROCS)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and JSON /snapshot on this address")
	)
	flag.Parse()

	obsrv, boundMetrics, shutdownObs, err := obs.Bootstrap(*metricsAddr, "")
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := shutdownObs(); err != nil {
			fmt.Fprintln(os.Stderr, "awdserve: telemetry:", err)
		}
	}()
	if boundMetrics != "" {
		fmt.Fprintf(os.Stderr, "awdserve: telemetry on http://%s/metrics\n", boundMetrics)
	}

	srv := wire.NewServer(wire.Config{
		CheckpointDir:       *ckptDir,
		MaxStreamsPerTenant: *maxPerTen,
		Workers:             *workers,
		Observer:            obsrv,
	})
	if *restoreFrom != "" {
		n, err := srv.Restore(*restoreFrom)
		if err != nil {
			fatal(fmt.Errorf("restore %s: %w", *restoreFrom, err))
		}
		fmt.Printf("restored %d streams from %s\n", n, *restoreFrom)
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	// The crash-replay smoke test and scripts parse this exact line.
	fmt.Printf("listening on %s\n", bound)
	if *httpAddr != "" {
		httpBound, err := srv.StartHTTP(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("http on %s\n", httpBound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "awdserve: draining")
	srv.Drain()
	if *ckptDir != "" {
		path, n, err := srv.Checkpoint("")
		if err != nil {
			fmt.Fprintln(os.Stderr, "awdserve: final checkpoint:", err)
		} else {
			fmt.Fprintf(os.Stderr, "awdserve: final checkpoint %s (%d bytes)\n", path, n)
		}
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "awdserve:", err)
	os.Exit(1)
}
