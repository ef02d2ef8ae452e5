// Package tcpchaos is faultnet's real-socket twin: a per-node TCP proxy
// that sits between an endpoint's peers and its listener and misbehaves on
// demand. Where faultnet injects faults into the in-memory simulator's
// message stream, tcpchaos injects them at the socket layer the paper's
// deployment actually ran on — abrupt connection kills (seeded, by relayed
// byte count, so a run's fault schedule is reproducible), stalls (bytes
// stop flowing but connections stay up), half-open links (one direction
// frozen) and partitions (new connections refused, existing ones cut).
//
// Topology: every node gets one proxy fronting its real listen address.
// The mesh's address list carries the proxy addresses, and each node
// listens on its real address (TCPConfig.Listener) — so every link's
// traffic traverses the victim side's proxy, and killing/stalling one
// proxy isolates exactly one node.
package tcpchaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Proxy's standing behavior; the zero value relays
// faithfully until an imperative control (KillConns, Stall, ...) is used.
type Config struct {
	// Seed drives the reproducible per-connection kill schedule.
	Seed uint64
	// KillAfterMin/KillAfterMax, when Max > 0, cut each proxied
	// connection abruptly (RST where the platform honors SO_LINGER(0))
	// after it has relayed a seeded pseudo-random number of bytes in
	// [Min, Max). Each successor connection draws a fresh budget, so a
	// reconnecting mesh suffers repeated seeded kills for as long as the
	// game runs.
	KillAfterMin int
	KillAfterMax int
}

// Proxy is one node's chaos proxy. All controls are safe for concurrent
// use.
type Proxy struct {
	cfg     Config
	backend string
	ln      net.Listener

	mu          sync.Mutex
	cond        *sync.Cond
	stalled     bool
	halfOpen    bool
	partitioned bool
	closed      bool
	pairs       map[*pair]struct{}
	nconn       uint64

	relayed atomic.Int64
	kills   atomic.Int64
	wg      sync.WaitGroup
}

// pair is one proxied connection: the accepted client socket and the
// dialed backend socket, pumped in both directions.
type pair struct {
	client, backend net.Conn
	budget          atomic.Int64 // relayed bytes until the seeded kill; <0 = unlimited
	killed          atomic.Bool
	pumps           atomic.Int32
}

// Listen starts a proxy on an ephemeral loopback port, forwarding every
// accepted connection to backend.
func Listen(backend string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcpchaos: listen: %w", err)
	}
	p := &Proxy{cfg: cfg, backend: backend, ln: ln, pairs: make(map[*pair]struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what the rest of the mesh
// should dial instead of the backend.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Relayed returns the total bytes relayed in both directions.
func (p *Proxy) Relayed() int64 { return p.relayed.Load() }

// Kills returns how many proxied connections were cut (seeded schedule,
// KillConns, and partition cuts all count).
func (p *Proxy) Kills() int64 { return p.kills.Load() }

// KillConns abruptly cuts every currently proxied connection, returning
// how many were cut. New connections are still accepted (unlike
// Partition), so a reconnecting mesh heals.
func (p *Proxy) KillConns() int {
	p.mu.Lock()
	victims := make([]*pair, 0, len(p.pairs))
	for pr := range p.pairs {
		victims = append(victims, pr)
	}
	p.mu.Unlock()
	for _, pr := range victims {
		p.killPair(pr)
	}
	return len(victims)
}

// Stall freezes (or resumes) byte relay in both directions: connections
// stay established but nothing flows, the shape of a livelocked peer or a
// zero window that never reopens.
func (p *Proxy) Stall(on bool) {
	p.mu.Lock()
	p.stalled = on
	p.cond.Broadcast()
	p.mu.Unlock()
}

// HalfOpen freezes (or resumes) only the backend-to-client direction: the
// node behind the proxy still hears its peers, but they stop hearing it —
// the classic half-open TCP failure.
func (p *Proxy) HalfOpen(on bool) {
	p.mu.Lock()
	p.halfOpen = on
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Partition isolates the node: existing connections are cut and new ones
// are refused until the partition heals.
func (p *Proxy) Partition(on bool) {
	p.mu.Lock()
	p.partitioned = on
	p.mu.Unlock()
	if on {
		p.KillConns()
	}
}

// Close shuts the proxy down, cutting everything it carries.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillConns()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		refuse := p.partitioned || p.closed
		n := p.nconn
		p.nconn++
		p.mu.Unlock()
		if refuse {
			abruptClose(conn)
			continue
		}
		p.wg.Add(1)
		go p.serve(conn, n)
	}
}

func (p *Proxy) serve(client net.Conn, ordinal uint64) {
	defer p.wg.Done()
	backend, err := net.DialTimeout("tcp", p.backend, 2*time.Second)
	if err != nil {
		// The node behind the proxy is down (killed, restarting): refuse
		// abruptly so the dialer's backoff keeps probing.
		abruptClose(client)
		return
	}
	pr := &pair{client: client, backend: backend}
	pr.budget.Store(-1)
	if p.cfg.KillAfterMax > 0 {
		span := p.cfg.KillAfterMax - p.cfg.KillAfterMin
		if span < 1 {
			span = 1
		}
		pr.budget.Store(int64(p.cfg.KillAfterMin) + int64(splitmix64(p.cfg.Seed^(ordinal+1))%uint64(span)))
	}
	p.mu.Lock()
	if p.closed || p.partitioned {
		p.mu.Unlock()
		abruptClose(client)
		abruptClose(backend)
		return
	}
	p.pairs[pr] = struct{}{}
	p.mu.Unlock()
	pr.pumps.Store(2)
	p.wg.Add(2)
	go p.pump(pr, client, backend, false)
	go p.pump(pr, backend, client, true)
}

// pump relays one direction of one proxied connection, applying the
// stall/half-open gates and the seeded kill budget.
func (p *Proxy) pump(pr *pair, src, dst net.Conn, backendToClient bool) {
	defer p.wg.Done()
	defer p.releasePump(pr)
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.gate(pr, backendToClient) {
				return
			}
			if p.cfg.KillAfterMax > 0 && pr.budget.Add(int64(-n)) <= 0 {
				// The seeded cut: the bytes in hand are lost with the
				// connection, exactly like a crash mid-write.
				p.killPair(pr)
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			p.relayed.Add(int64(n))
		}
		if err != nil {
			// Propagate a clean shutdown as a half-close so graceful
			// drains (FIN) traverse the proxy faithfully. A read that
			// failed because the pair was killed is no shutdown: a FIN
			// sent before the RST would make the cut look like a hang-up.
			if tc, ok := dst.(*net.TCPConn); ok && !pr.killed.Load() {
				_ = tc.CloseWrite()
			}
			return
		}
	}
}

// gate blocks while this direction is stalled; it reports false when the
// pair died or the proxy closed while waiting.
func (p *Proxy) gate(pr *pair, backendToClient bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for (p.stalled || (p.halfOpen && backendToClient)) && !p.closed && !pr.killed.Load() {
		p.cond.Wait()
	}
	return !p.closed && !pr.killed.Load()
}

// killPair cuts both sides of a proxied connection abruptly.
func (p *Proxy) killPair(pr *pair) {
	if !pr.killed.CompareAndSwap(false, true) {
		return
	}
	p.kills.Add(1)
	abruptClose(pr.client)
	abruptClose(pr.backend)
	p.mu.Lock()
	delete(p.pairs, pr)
	p.cond.Broadcast() // unblock gates waiting on this pair
	p.mu.Unlock()
}

// releasePump retires one of a pair's two pumps; the last one out removes
// the pair and closes whatever is still open.
func (p *Proxy) releasePump(pr *pair) {
	if pr.pumps.Add(-1) > 0 {
		return
	}
	p.mu.Lock()
	delete(p.pairs, pr)
	p.mu.Unlock()
	_ = pr.client.Close()
	_ = pr.backend.Close()
}

// abruptClose cuts a connection with an RST where possible, modeling a
// crashed process rather than a graceful FIN exchange.
func abruptClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// splitmix64 is the SplitMix64 mixing function, the same seeded-decision
// idiom faultnet and the transport backoff use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
