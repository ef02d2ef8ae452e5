// Command sdso-node runs one game process of a genuinely distributed S-DSO
// deployment over TCP — the configuration the paper ran on its workstation
// cluster. Start one process per team, each naming the full address list
// and its own index:
//
//	sdso-node -id 0 -peers "host0:7000,host1:7000" -protocol MSYNC2 &
//	sdso-node -id 1 -peers "host0:7000,host1:7000" -protocol MSYNC2
//
// Every node must use identical -peers, -protocol, and game flags.
//
// With -reconnect the transport keeps each link alive across socket
// deaths (session resumption, jittered redial, optional -heartbeat
// liveness probing, bounded -sendq send queues), and a killed process can
// be restarted into the same game:
//
//	sdso-node -id 1 -peers ... -reconnect -join -incarnation 2
//
// On SIGINT or SIGTERM the node drains: queued frames are flushed, every
// link is half-closed with a clean FIN, and the process exits with code 3
// so scripts can tell a graceful interruption from a crash (1) or a
// finished game (0).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/store"
	"sdso/internal/transport"
)

// exitDrained is the exit code after a signal-triggered graceful drain.
const exitDrained = 3

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdso-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdso-node", flag.ContinueOnError)
	id := fs.Int("id", -1, "this node's index into -peers")
	peers := fs.String("peers", "", "comma-separated listen addresses, one per node, indexed by -id")
	proto := fs.String("protocol", "MSYNC2", "lookahead protocol: BSYNC, MSYNC, or MSYNC2")
	rng := fs.Int("range", 1, "tank visibility range")
	seed := fs.Int64("seed", 1, "world placement seed (identical on every node)")
	ticks := fs.Int("ticks", 200, "game horizon in logical ticks")
	race := fs.Bool("race", true, "end the game when the first team reaches the goal")
	reconnect := fs.Bool("reconnect", false, "survive connection loss: redial with backoff and resume the session")
	grace := fs.Duration("grace", 0, "how long a broken link queues sends before the peer is declared gone (0 = default)")
	heartbeat := fs.Duration("heartbeat", 0, "liveness probe interval for idle links (0 = off unless -reconnect's default applies)")
	hbMisses := fs.Int("heartbeat-misses", 0, "probe intervals a silent link survives before teardown (0 = default)")
	sendq := fs.Int("sendq", 0, "per-peer send queue cap in bytes (0 = default; implies the resilient transport)")
	sendqFrames := fs.Int("sendq-frames", 0, "per-peer send queue cap in frames (0 = default)")
	incarnation := fs.Int64("incarnation", 0, "this process's life number; restart with a higher one to reclaim links")
	join := fs.Bool("join", false, "enter a game already in progress from a peer's checkpoint (requires -reconnect)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) < 2 {
		return fmt.Errorf("-peers must list at least two addresses")
	}
	if *id < 0 || *id >= len(addrs) {
		return fmt.Errorf("-id %d out of range for %d peers", *id, len(addrs))
	}
	var variant lookahead.Protocol
	switch strings.ToUpper(*proto) {
	case "BSYNC":
		variant = lookahead.BSYNC
	case "MSYNC":
		variant = lookahead.MSYNC
	case "MSYNC2":
		variant = lookahead.MSYNC2
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	if *heartbeat < 0 || *grace < 0 {
		return fmt.Errorf("-heartbeat and -grace must not be negative")
	}
	if *hbMisses < 0 || *sendq < 0 || *sendqFrames < 0 {
		return fmt.Errorf("-heartbeat-misses, -sendq, and -sendq-frames must not be negative")
	}
	if *incarnation < 0 {
		return fmt.Errorf("-incarnation must not be negative")
	}
	tcfg := transport.TCPConfig{
		Reconnect:         *reconnect,
		ReconnectGrace:    *grace,
		HeartbeatInterval: *heartbeat,
		HeartbeatMisses:   *hbMisses,
		SendQueueBytes:    *sendq,
		SendQueueFrames:   *sendqFrames,
		Incarnation:       *incarnation,
	}
	resilient := *reconnect || *heartbeat > 0 || *sendq > 0 || *sendqFrames > 0
	if *join && !resilient {
		return fmt.Errorf("-join requires the resilient transport (-reconnect)")
	}

	g := game.DefaultConfig(len(addrs), *rng)
	g.Seed = *seed
	g.MaxTicks = *ticks
	g.EndOnFirstGoal = *race

	fmt.Printf("node %d: joining %d-node mesh...\n", *id, len(addrs))
	ep, err := transport.DialTCPConfig(*id, addrs, tcfg)
	if err != nil {
		return fmt.Errorf("mesh: %w", err)
	}
	defer ep.Close()
	fmt.Printf("node %d: mesh up, playing team %d under %s\n", *id, *id, variant)

	// A signal drains instead of cutting: flush what's queued, FIN every
	// link so peers see a clean end-of-stream, and exit distinctly.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Printf("node %d: %v, draining...\n", *id, sig)
		flushed, _ := ep.Drain()
		_ = ep.Close()
		fmt.Printf("node %d: drained (%d pending bytes flushed)\n", *id, flushed)
		os.Exit(exitDrained)
	}()

	start := time.Now()
	mc := metrics.NewCollector()
	touched, objects := 0, 0
	stats, err := lookahead.RunPlayer(lookahead.PlayerConfig{
		Game:        g,
		Protocol:    variant,
		Endpoint:    ep,
		Join:        *join,
		Incarnation: *incarnation,
		Metrics:     mc,
		Snapshot:    func(st *store.Store) { touched, objects = st.Materialized(), st.Len() },
	})
	if err != nil {
		return fmt.Errorf("game: %w", err)
	}
	sent := mc.Snapshot()
	fmt.Printf("node %d finished: ticks=%d mods=%d score=%d reachedGoal=%v destroyed=%v (%.2fs wall) sent %d frames, %d B, envelope=%.2f, touched=%d/%d\n",
		*id, stats.Ticks, stats.Mods, stats.Score, stats.ReachedGoal, stats.Destroyed,
		time.Since(start).Seconds(),
		sent.TotalMsgs(), sent.BytesSent, 1-float64(sent.PayloadBytes)/float64(sent.BytesSent),
		touched, objects)
	return nil
}
