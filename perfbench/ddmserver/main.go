// Command ddmserver serves DDM-OCI drift detectors over the repository's
// wire protocol: a Monitor whose factory builds detectors.NewDDMOCI, behind
// server.New with production defaults (telemetry on). It exists for the
// benchmark's wire-single workload, because driftserver hosts RBM-IM only.
//
// Usage:
//
//	ddmserver [-addr 127.0.0.1:0] [-classes 5]
//
// It prints "ddmserver: serving on ADDR" once listening and drains on
// SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "TCP listen address")
	classes := flag.Int("classes", 5, "classes per stream")
	flag.Parse()

	m, err := monitor.New(monitor.Config{
		Detector: core.Config{Classes: *classes},
		NewDetector: func(string) (detectors.Detector, error) {
			return detectors.NewDDMOCI(*classes, 0, 0), nil
		},
	})
	if err != nil {
		fail(err)
	}
	srv, err := server.New(server.Config{Monitor: m, Addr: *addr})
	if err != nil {
		m.Close()
		fail(err)
	}
	fmt.Printf("ddmserver: serving on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	m.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ddmserver:", err)
	os.Exit(1)
}
