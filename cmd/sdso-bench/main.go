// Command sdso-bench regenerates the paper's evaluation: Figures 5-8 of
// "Exploiting Temporal and Spatial Constraints on Distributed Shared
// Objects" (ICDCS 1997), measured on the simulated 16-workstation /
// 10 Mbps-Ethernet cluster, and the panels beyond them. It prints each
// panel of harness.Panels as its table and a "wall" footer line, so a
// table depends only on its seeds.
//
// Usage:
//
//	sdso-bench                 # all panels, both ranges
//	sdso-bench -fig 5 -range 3 # one panel
//	sdso-bench -seeds 5        # average over more game seeds
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"sdso/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdso-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdso-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, blocking, datasize, quorum, delta, interest, shard, resilience, or all")
	rng := fs.Int("range", 0, "tank visibility range (1 or 3); 0 means both")
	seeds := fs.Int("seeds", 3, "number of game seeds to average over")
	maxTicks := fs.Int("ticks", 200, "game horizon in logical ticks")
	extras := fs.Bool("extensions", false, "also run the LRC and causal-memory baselines")
	workers := fs.Int("workers", 0, "panel worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rng != 0 && *rng != 1 && *rng != 3 {
		return fmt.Errorf("range must be 1 or 3, got %d", *rng)
	}
	if *seeds < 1 {
		return fmt.Errorf("seeds must be at least 1, got %d", *seeds)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sdso-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sdso-bench: memprofile:", err)
			}
		}()
	}

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	protos := append([]harness.Protocol(nil), harness.PaperProtocols...)
	if *extras {
		protos = append(protos, harness.LRC, harness.Causal)
	}

	var names []string
	var picked []harness.Panel
	for _, p := range harness.Panels(harness.SweepConfig{Protocols: protos, Seeds: seedList, MaxTicks: *maxTicks, Workers: *workers}) {
		if !slices.Contains(names, p.Name) {
			names = append(names, p.Name)
		}
		// The resilience panel runs over real loopback sockets with chaos
		// proxies killing every connection, so it is not part of -fig all.
		named := *fig == p.Name || *fig == "all" && p.Name != "resilience"
		if named && (*rng == 0 || p.Range == 0 || p.Range == *rng) {
			picked = append(picked, p)
		}
	}
	if len(picked) == 0 {
		if slices.Contains(names, *fig) {
			return fmt.Errorf("figure %s has no range %d panel", *fig, *rng)
		}
		return fmt.Errorf("unknown figure %q (want %s, or all)", *fig, strings.Join(names, ", "))
	}
	for _, p := range picked {
		start := time.Now()
		table, err := p.Play()
		if err != nil {
			return err
		}
		fmt.Printf("%swall %v\n\n", table, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
