// Command anufsgw is the fleet gateway: a wire-protocol endpoint fronting
// a sharded anufsd fleet. Clients that do not speak the cluster map
// (plain wire.Client users such as anufsctl) connect here, speaking the
// same tagged frames a daemon serves; the gateway routes every
// file-set-addressed request to its owning daemon over connection pools
// (internal/sdk), transparently absorbing wrong-owner
// rejections and live handoffs. Namespace mounts broadcast to every
// daemon, global-path ops resolve then route, and lock sessions map to
// per-daemon sessions — so one gateway looks like one logical server.
//
// Gateways are stateless and scale horizontally: run N of them behind any
// TCP load balancer and point each at its peers with -peers, so they
// share cached cluster maps and converge on new epochs without all
// hitting the authority.
//
// Usage:
//
//	anufsgw -listen :7470 -authority 127.0.0.1:7460 -http :6070
//	anufsgw -listen :7471 -authority 127.0.0.1:7460 -peers 127.0.0.1:7470
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/obs"
	"anufs/internal/sdk"
)

func main() {
	var (
		listen    = flag.String("listen", ":7470", "TCP listen address for wire clients")
		authority = flag.String("authority", "127.0.0.1:7460", "the fleet authority daemon's wire address")
		peers     = flag.String("peers", "", "comma-separated wire addresses of peer gateways (shared map cache sources)")
		authStby  = flag.String("authority-standby", "", "standby authority's wire address, consulted for maps when the authority is down")
		budget    = flag.Duration("budget", fleet.DefaultRouteBudget, "per-request routing budget (map refetches + retries)")
		pool      = flag.Int("pool", sdk.DefaultPoolSize, "pipelined connections per daemon")
		timeout   = flag.Duration("timeout", 0, "per-call deadline toward daemons (0 = wire default)")
		httpAddr  = flag.String("http", "", "observability HTTP address (/metrics, /healthz); empty disables")
		nodeName  = flag.String("node", "", `node identity stamped on trace spans and trace-pull answers (default "gw@<listen>")`)
		slowOver  = flag.Duration("slow-trace", 0, "promote traces slower than this into the durable flight recorder (/debug/slow, SIGQUIT); 0 disables")
	)
	flag.Parse()

	var peerAddrs []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerAddrs = append(peerAddrs, p)
		}
	}
	if *authStby != "" {
		// The standby refuses map requests until it promotes, so listing it
		// as a trailing peer is free in steady state and makes the promoted
		// authority reachable without restarting gateways.
		peerAddrs = append(peerAddrs, *authStby)
	}

	reg := obs.New()
	node := *nodeName
	if node == "" {
		node = "gw@" + *listen
	}
	reg.SetNode(node)
	reg.Slow.SetThreshold(*slowOver)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintf(os.Stderr, "anufsgw: slow-trace flight recorder (%s):\n", node)
			reg.Slow.WriteTo(os.Stderr)
		}
	}()
	gw, err := sdk.NewGateway(sdk.GatewayConfig{
		Authority: *authority,
		Peers:     peerAddrs,
		Budget:    *budget,
		PoolSize:  *pool,
		Timeout:   *timeout,
		Obs:       reg,
	})
	if err != nil {
		log.Fatalf("anufsgw: %v", err)
	}
	defer gw.Close()

	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("anufsgw: http: %v", err)
		}
		hsrv := &http.Server{Handler: reg.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = hsrv.Serve(hln) }()
		defer hsrv.Close()
		log.Printf("anufsgw: observability HTTP at %s", hln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("anufsgw: %v", err)
	}
	log.Printf("anufsgw: routing for fleet authority %s at %s (map epoch %d, %d peers)",
		*authority, ln.Addr(), gw.Router().Map().Epoch, len(peerAddrs))
	go gw.ServeListener(ln)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("anufsgw: shutting down")
	ln.Close()
}
