package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/transport"
)

const (
	// meshAttempts bounds whole-mesh set-up retries on EADDRINUSE: a port
	// reserved on 127.0.0.1:0 and released can be taken before the
	// endpoint re-listens on it.
	meshAttempts = 3
	// connBudget caps the loopback connections one run may open, and
	// connsPerSecond the rate, averaged over the run, at which it opens
	// them. Every closed connection leaves a TIME_WAIT socket for 60 s;
	// once back-to-back runs have left more of them than there are
	// ephemeral ports (28 000), mesh set-up slows fivefold and the games by
	// a tenth, so a run's numbers would depend on how many runs came
	// before it. 300/s keeps the standing population near 18 000.
	connBudget     = 8000
	connsPerSecond = 300
)

// connsOpened counts the connections this process has dialed, and
// processStart is when it began.
var (
	connsOpened  atomic.Int64
	processStart = time.Now()
)

// coolDown sleeps until the process has averaged no more than
// connsPerSecond; a run that dialed nothing does not sleep. It is called
// between probe passes, which spreads a TCP run's probes over the time the
// run has to last anyway, and after the result is printed. It is never
// called between the games of a pass: that lets the core go cold and made
// identical runs differ by 23 %.
func coolDown() {
	due := time.Duration(connsOpened.Load()) * time.Second / connsPerSecond
	time.Sleep(time.Until(processStart.Add(due)))
}

// reserveAddrs picks n distinct free loopback ports.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// dialMesh builds an n-node loopback TCP mesh with deferred flushing and
// wire counters on mcs, retrying the whole set-up when a reserved port was
// taken. retries is the number of attempts beyond the first.
func dialMesh(n int, mcs []*metrics.Collector) (mesh []*transport.TCPEndpoint, retries int, err error) {
	for attempt := 0; attempt < meshAttempts; attempt++ {
		if opened := connsOpened.Add(int64(n * (n - 1) / 2)); opened > connBudget {
			return nil, attempt, fmt.Errorf("tcp mesh: %d connections exceed the per-run budget of %d", opened, connBudget)
		}
		var addrs []string
		if addrs, err = reserveAddrs(n); err != nil {
			return nil, attempt, err
		}
		mesh, err = dialMeshAt(addrs, mcs)
		if err == nil || !errors.Is(err, syscall.EADDRINUSE) {
			return mesh, attempt, err
		}
	}
	return nil, meshAttempts - 1, err
}

// dialMeshAt brings up one node per address, or none.
func dialMeshAt(addrs []string, mcs []*metrics.Collector) ([]*transport.TCPEndpoint, error) {
	n := len(addrs)
	eps := make([]*transport.TCPEndpoint, n)
	errs := make([]error, n)
	failed := make(chan struct{})
	var fail sync.Once
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = transport.DialTCPConfig(i, addrs, transport.TCPConfig{
				DialTimeout:    3 * time.Second,
				FlushThreshold: 32 << 10,
				Metrics:        mcs[i],
			})
			if errs[i] != nil {
				fail.Do(func() { close(failed) })
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-failed:
		unblockAccepts(addrs, done)
	}
	if err := errors.Join(errs...); err != nil {
		live := eps[:0]
		for _, ep := range eps {
			if ep != nil {
				live = append(live, ep)
			}
		}
		closeMesh(live)
		return nil, fmt.Errorf("tcp mesh: %w", err)
	}
	return eps, nil
}

// unblockAccepts is called once a node of the mesh has failed to come up.
// DialTCPConfig bounds its dials by DialTimeout but waits in Accept
// without a deadline, so the lower-numbered nodes would wait for the
// failed node's connection forever. A connection closed before its
// handshake makes each waiting node give up with a handshake error. Nodes
// that are not listening yet are visited again until every dial returned.
func unblockAccepts(addrs []string, done <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, addr := range addrs {
			if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				conn.Close()
			}
		}
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
}

// closeMesh closes every endpoint concurrently: a sequential close leaves
// the first endpoint's read loops waiting on still-open peers until the
// close grace expires.
func closeMesh(mesh []*transport.TCPEndpoint) {
	var wg sync.WaitGroup
	for _, ep := range mesh {
		ep := ep
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Close()
		}()
	}
	wg.Wait()
}
