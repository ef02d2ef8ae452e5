// Command sdso-bench regenerates the paper's evaluation: Figures 5-8 of
// "Exploiting Temporal and Spatial Constraints on Distributed Shared
// Objects" (ICDCS 1997), measured on the simulated 16-workstation /
// 10 Mbps-Ethernet cluster.
//
// Usage:
//
//	sdso-bench                 # all figures, both ranges
//	sdso-bench -fig 5 -range 3 # one panel
//	sdso-bench -seeds 5        # average over more game seeds
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

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
	workers := fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
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

	ranges := []int{1, 3}
	if *rng == 1 || *rng == 3 {
		ranges = []int{*rng}
	} else if *rng != 0 {
		return fmt.Errorf("range must be 1 or 3, got %d", *rng)
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	protos := append([]harness.Protocol(nil), harness.PaperProtocols...)
	if *extras {
		protos = append(protos, harness.LRC, harness.Causal)
	}

	want := func(n string) bool { return *fig == "all" || *fig == n }

	for _, r := range ranges {
		needSweep := want("5") || want("6") || want("7") || (want("8") && r == 1)
		if !needSweep {
			continue
		}
		sw, err := harness.RunSweep(harness.SweepConfig{
			Protocols: protos,
			Range:     r,
			Seeds:     seedList,
			MaxTicks:  *maxTicks,
			Workers:   *workers,
		})
		if err != nil {
			return err
		}
		if want("5") {
			title := fmt.Sprintf("Figure 5 (range %d): avg execution time per process / avg object modifications", r)
			fmt.Println(sw.Table(title, "ms per modification", harness.MetricNormalizedTime))
		}
		if want("6") {
			fmt.Println(sw.Figure6Tables(r))
		}
		if want("7") {
			title := fmt.Sprintf("Figure 7 (range %d): data message transfers", r)
			fmt.Println(sw.Table(title, "data messages", harness.MetricDataMsgs))
		}
		if want("8") && r == 1 {
			fmt.Println(sw.Table("Figure 8: protocol overhead as % of execution time (range 1)",
				"% of execution time", harness.MetricOverheadPct))
			fmt.Println(sw.OverheadBreakdown(16))
		}
	}

	// The paper's §4 announced future-work analyses, implemented here.
	if want("blocking") {
		rows, err := harness.BlockingAnalysis(1, seedList, nil)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderBlocking(rows))
	}
	if want("datasize") {
		rows, err := harness.DataSizeSweep(nil, 8, 1, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderDataSize(rows, 8))
	}
	if want("quorum") {
		rows, err := harness.QuorumAnalysis(seedList, *workers)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderQuorum(rows))
	}
	// The delta panel sweeps the delta-encoded exchange path (plain vs
	// delta + tick batching) across n up to 128 on the same simulated
	// cluster as Figures 5-8.
	if want("delta") {
		rows, err := harness.DeltaAnalysis(nil, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderDelta(rows))
	}
	// The interest panel sweeps the spatial interest filter (off vs on)
	// across fixed-density worlds at n up to 256, both sides running the
	// delta-encoded batched exchange.
	if want("interest") {
		rows, err := harness.InterestAnalysis(nil, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderInterest(rows))
	}
	// The shard panel sweeps shard counts {1, 4, 16} across the same
	// fixed-density worlds, DATA fanout bounded by shard residency.
	if want("shard") {
		rows, err := harness.ShardAnalysis(nil, nil, seedList)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderShard(rows))
	}
	// The resilience panel runs over real loopback sockets (not the
	// simulator) with chaos proxies killing every connection, so it is
	// opt-in rather than part of -fig all.
	if *fig == "resilience" {
		rows, err := harness.ResilienceAnalysis(nil, nil)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderResilience(rows))
	}

	switch *fig {
	case "all", "5", "6", "7", "8", "blocking", "datasize", "quorum", "delta", "interest", "shard", "resilience":
		return nil
	default:
		return fmt.Errorf("unknown figure %q (want 5, 6, 7, 8, blocking, datasize, quorum, delta, interest, shard, resilience, or all)", *fig)
	}
}
