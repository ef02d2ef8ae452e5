// Command sdso-check sweeps the consistency oracle over seeded delivery
// schedules for the paper's four protocols: each schedule runs a complete
// game with every message delivery perturbed by a seed-derived jitter
// (optionally under an ambient faultnet drop/dup/delay plan), records the
// per-process observation history, and replays it through the
// internal/check invariants. The QUORUM grid drives the ABD replication
// engine instead: seeded operation schedules with crash plans that kill up
// to f replicas mid-protocol (including mid-phase-2), checked against the
// quorum invariants. Any failure is greedily shrunk and reported with the
// command line that reproduces it.
//
// Usage:
//
//	sdso-check                                  # 64 schedules per protocol
//	sdso-check -protocols MSYNC2 -schedules 16  # one protocol, quick
//	sdso-check -seed 7 -fault-every 4           # every 4th schedule lossy
//	sdso-check -protocols QUORUM -quorum-f 2    # ABD grid, f=2 only
//	sdso-check -repro 23 -protocols EC -fault-every 1
//	                                            # replay one shrunk schedule
//	sdso-check -protocols BSYNC,MSYNC,MSYNC2 -interest
//	                                            # spatial interest filter on
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sdso/internal/check"
	"sdso/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdso-check:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdso-check", flag.ContinueOnError)
	protos := fs.String("protocols", "BSYNC,MSYNC,MSYNC2,EC,QUORUM", "comma-separated protocols to check")
	schedules := fs.Int("schedules", 64, "delivery schedules (seeds) explored per protocol")
	seed := fs.Int64("seed", 1, "first schedule seed; schedule i runs seed+i")
	teams := fs.Int("teams", 4, "number of players")
	ticks := fs.Int("ticks", 48, "game horizon in logical ticks")
	faultEvery := fs.Int("fault-every", 4, "run every Nth schedule under ambient message faults (0 = never)")
	quorumF := fs.String("quorum-f", "1,2", "replication factors swept by the QUORUM grid")
	interest := fs.Bool("interest", false, "run the lookahead protocols with spatial interest management on (arms the interest-safety invariants)")
	repro := fs.Int64("repro", 0, "replay exactly the one schedule with this seed (as printed in a repro line) and exit")
	verbose := fs.Bool("v", false, "print per-protocol progress")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var list []harness.Protocol
	quorum := false
	for _, p := range strings.Split(*protos, ",") {
		name := harness.Protocol(strings.ToUpper(strings.TrimSpace(p)))
		switch name {
		case harness.BSYNC, harness.MSYNC, harness.MSYNC2:
			list = append(list, name)
		case harness.EC:
			if *interest {
				return fmt.Errorf("-interest applies to the lookahead protocols; drop EC from -protocols")
			}
			list = append(list, name)
		case "QUORUM":
			quorum = true
		default:
			return fmt.Errorf("unknown protocol %q (want BSYNC, MSYNC, MSYNC2, EC, QUORUM)", p)
		}
	}
	var factors []int
	if quorum {
		for _, s := range strings.Split(*quorumF, ",") {
			f, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || f < 1 {
				return fmt.Errorf("bad -quorum-f entry %q", s)
			}
			factors = append(factors, f)
		}
	}

	cfg := check.ExploreConfig{
		Schedules:  *schedules,
		BaseSeed:   *seed,
		Ticks:      *ticks,
		Teams:      *teams,
		FaultEvery: *faultEvery,
	}
	if *repro != 0 {
		// A repro line names one shrunk schedule: run exactly that seed
		// (with faults iff -fault-every 1 accompanied it) and nothing else.
		cfg.Schedules = 1
		cfg.BaseSeed = *repro
	}

	failed := false
	report := func(label string, res *check.ExploreResult, reproLine func(check.Scenario) string) {
		if res.Ok() {
			fmt.Printf("%-12s ok: %d schedules (%d with faults), %d events checked\n",
				label, res.Explored, res.FaultRuns, res.Events)
			if *verbose {
				fmt.Printf("             seeds %d..%d, %d teams, %d ticks\n",
					cfg.BaseSeed, cfg.BaseSeed+int64(cfg.Schedules)-1, cfg.Teams, cfg.Ticks)
			}
			return
		}
		failed = true
		fmt.Printf("%-12s FAILED: %d of %d schedules\n", label, len(res.Failures), res.Explored)
		for _, f := range res.Failures {
			fmt.Printf("  %s\n", f)
			fmt.Printf("  repro: %s\n", reproLine(f.Shrunk))
		}
	}

	for _, proto := range list {
		proto := proto
		runner := harness.CheckedRunner(proto)
		if *interest {
			runner = harness.InterestCheckedRunner(proto)
		}
		res := check.Explore(cfg, runner)
		report(string(proto), res, func(sc check.Scenario) string {
			line := harness.ReproLine(proto, sc)
			if *interest {
				line += " -interest"
			}
			return line
		})
	}
	for _, f := range factors {
		f := f
		res := check.Explore(cfg, check.QuorumRunner(f))
		report(fmt.Sprintf("QUORUM(f=%d)", f), res, func(sc check.Scenario) string {
			return quorumReproLine(f, sc)
		})
	}
	if failed {
		return fmt.Errorf("consistency violations found")
	}
	return nil
}

// quorumReproLine renders the sdso-check invocation that re-runs one ABD
// schedule.
func quorumReproLine(f int, sc check.Scenario) string {
	line := fmt.Sprintf("go run ./cmd/sdso-check -repro %d -protocols QUORUM -quorum-f %d -teams %d -ticks %d",
		sc.Seed, f, sc.Teams, sc.Ticks)
	if sc.Faults {
		line += " -fault-every 1"
	}
	return line
}
