// Command hyperrouter is the stateless scatter-gather tier in front of
// a fleet of hyperlined replicas: it owns the replica map (consistent
// hashing on dataset names, -replication owners per dataset), fans each
// POST /v2/query s-list out to the healthy owners, and merges the per-s
// entries back in order. The request deadline travels with the work —
// every sub-request carries the *remaining* budget as timeout_ms, so a
// short client timeout expires on the replica, never as a hung router.
// Replica 429/Retry-After answers fail over to the next owner and, when
// every owner sheds, surface as a router-level 429 with the largest
// Retry-After; a shard that dawdles past -hedge-after is raced against
// the next owner and the first answer wins.
//
// Usage:
//
//	hyperrouter [-addr :8090] [-replicas http://a:8080,http://b:8080]
//	            [-replication 2] [-hedge-after 0]
//	            [-health-interval 2s] [-request-timeout 0]
//	            [-drain-timeout 10s]
//
// Replicas may also self-register (hyperlined -register/-advertise) via
// POST /v1/replicas; GET /v1/replicas shows the member list and health.
// The router keeps no dataset bytes and no caches: uploads
// (PUT /v1/datasets/{name}) replicate to the dataset's owners, queries
// pass replica answers through verbatim, and GET /metrics exposes the
// fan-out/hedge/retry/shed counter families.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hyperline/internal/cluster"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so slow or stalled connections cannot pin server goroutines;
// idleTimeout closes keep-alive connections left idle. Request bodies
// and handlers are bounded separately (MaxBytesReader, request
// contexts), since queries may legitimately run long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated hyperlined base URLs (replicas may also self-register via POST /v1/replicas)")
	replication := flag.Int("replication", 2, "replicas owning each dataset (clamped to the cluster size)")
	hedgeAfter := flag.Duration("hedge-after", 0, "per-shard latency budget before a hedged duplicate goes to the next owner (0 = no hedging)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "replica /healthz probe period")
	reqTimeout := flag.Duration("request-timeout", 0, "bound on proxied queries without their own shorter timeout_ms (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window after SIGINT/SIGTERM")
	flag.Parse()

	var seed []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			seed = append(seed, u)
		}
	}
	rt := cluster.NewRouter(cluster.Config{
		Replicas:       seed,
		Replication:    *replication,
		HedgeAfter:     *hedgeAfter,
		HealthInterval: *healthInterval,
		RequestTimeout: *reqTimeout,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	srv := &http.Server{Addr: *addr, Handler: rt.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("hyperrouter listening on %s (%d seed replicas, replication %d)", *addr, len(seed), *replication)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("hyperrouter: shutdown signal received, draining for up to %v", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
			log.Printf("hyperrouter: drain window expired: %v", err)
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Printf("hyperrouter: drained cleanly")
	}
}
