// Command backend runs one capacity-limited backend server — the stand-in
// for the paper's Apache boxes — at Layer 7 (HTTP) or Layer 4 (TCP
// request/response).
//
// Usage:
//
//	backend -layer l7 -addr 127.0.0.1:8081 -capacity 320
//	backend -layer l4 -addr 127.0.0.1:9081 -capacity 320
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/l4"
	"repro/internal/l7"
	"repro/internal/obs"
)

func main() {
	layer := flag.String("layer", "l7", "l7 (HTTP) or l4 (TCP)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	capacity := flag.Float64("capacity", 320, "service capacity in requests/second")
	stats := flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	admin := flag.String("admin", "", "admin listener for /v1/metrics and pprof")
	flag.Parse()

	var served func() int64
	var closeFn func() error
	switch *layer {
	case "l7":
		b, err := l7.NewBackend(*addr, *capacity)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("l7 backend serving at %s (capacity %.0f req/s)\n", b.URL(), *capacity)
		served, closeFn = b.Served, b.Close
	case "l4":
		b, err := l4.NewBackend(*addr, *capacity)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("l4 backend serving at %s (capacity %.0f req/s)\n", b.Addr(), *capacity)
		served, closeFn = b.Served, b.Close
	default:
		log.Fatalf("unknown layer %q (want l7 or l4)", *layer)
	}
	defer closeFn() //nolint:errcheck // process exit

	if *admin != "" {
		h := obs.NewHandler(obs.HandlerConfig{
			Extra: func(w io.Writer) {
				obs.WriteMetric(w, "rsa_backend_served_total", "counter",
					"Requests this backend has completed.", float64(served()))
				obs.WriteMetric(w, "rsa_backend_capacity", "gauge",
					"Configured service capacity in requests/second.", *capacity)
			},
		})
		bound, err := obs.Serve(*admin, h, nil)
		if err != nil {
			log.Fatalf("admin listener %s: %v", *admin, err)
		}
		fmt.Printf("admin endpoints at %s\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *stats <= 0 {
		<-sig
		return
	}
	tick := time.NewTicker(*stats)
	defer tick.Stop()
	last := int64(0)
	for {
		select {
		case <-sig:
			return
		case <-tick.C:
			cur := served()
			fmt.Printf("served %d total (%.1f req/s)\n", cur, float64(cur-last)/stats.Seconds())
			last = cur
		}
	}
}
