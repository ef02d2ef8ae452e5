// Command sdso-game plays one complete tank game (the paper's evaluation
// application) under a chosen consistency protocol on the simulated cluster
// and reports per-team outcomes and protocol costs.
//
// Usage:
//
//	sdso-game -protocol MSYNC2 -teams 8 -range 1 -seed 7 -show
package main

import (
	"flag"
	"fmt"
	"os"

	"sdso/internal/game"
	"sdso/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdso-game:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdso-game", flag.ContinueOnError)
	proto := fs.String("protocol", "MSYNC2", "consistency protocol: BSYNC, MSYNC, MSYNC2, EC, LRC, CAUSAL, CENTRAL")
	teams := fs.Int("teams", 8, "number of teams (= processes)")
	rng := fs.Int("range", 1, "tank visibility range")
	seed := fs.Int64("seed", 1, "world placement seed")
	ticks := fs.Int("ticks", 200, "game horizon in logical ticks")
	race := fs.Bool("race", true, "end the game when the first team reaches the goal")
	show := fs.Bool("show", false, "render the initial world")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := game.DefaultConfig(*teams, *rng)
	g.Seed = *seed
	g.MaxTicks = *ticks
	g.EndOnFirstGoal = *race

	if *show {
		w, err := game.NewWorld(g)
		if err != nil {
			return err
		}
		fmt.Printf("initial world (goal G at %v):\n%s\n", w.Goal, w)
	}

	res, err := harness.Run(harness.Config{Game: g, Protocol: harness.Protocol(*proto)})
	if err != nil {
		return err
	}

	fmt.Printf("protocol %s, %d teams, range %d, seed %d\n", *proto, *teams, *rng, *seed)
	fmt.Printf("%-6s %-7s %-6s %-6s %-8s %-10s %s\n",
		"team", "ticks", "mods", "score", "goal", "destroyed", "done-at")
	for _, st := range res.Stats {
		fmt.Printf("%-6d %-7d %-6d %-6d %-8v %-10v %d\n",
			st.Team, st.Ticks, st.Mods, st.Score, st.ReachedGoal, st.Destroyed, st.DoneTick)
	}
	if len(res.Touched) > 0 {
		sum := 0.0
		for _, k := range res.Touched {
			sum += float64(k) / float64(len(res.Touched))
		}
		fmt.Printf("\nreplica: a team touched %.1f of %d blocks on average (%.1f%%); the rest it read from the shared start\n",
			sum, g.NumObjects(), 100*sum/float64(g.NumObjects()))
	}
	fmt.Printf("\nvirtual duration: %v\n", res.VirtualDuration)
	fmt.Printf("messages: %d total (%d data, %d control)\n",
		res.Metrics.TotalMsgs(), res.Metrics.DataMsgs(), res.Metrics.ControlMsgs())
	fmt.Printf("normalized execution time: %v per modification\n", res.Metrics.NormalizedExecTime())
	fmt.Printf("protocol overhead: %.1f%% of execution time\n", res.Metrics.AvgOverheadPct())
	fmt.Printf("message kinds: %s\n", res.Metrics.KindBreakdown())
	return nil
}
