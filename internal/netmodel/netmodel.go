// Package netmodel provides link-cost models for the vtime simulator that
// approximate the paper's testbed: 16 SGI Indy workstations (MIPS R4400)
// connected by switched 10 Mbps Ethernet, talking TCP.
//
// The model is deliberately simple — the reproduction targets the *shape* of
// the paper's figures, which is driven by the relative cost of lock
// round-trips, broadcast fan-out, and multicast subsets, not by absolute
// host speed:
//
//   - Each host has an uplink and a downlink NIC that serialize
//     transmissions (store-and-forward through the switch). Sixteen peers
//     broadcasting 2 KB messages therefore congest a receiver's downlink,
//     which is what makes BSYNC's per-tick cost grow with n.
//   - Every message additionally pays fixed propagation (switch + protocol
//     stack) latency and per-message CPU costs at the sender and receiver.
//   - Messages between co-located processes (same host) skip the NICs and
//     pay only a small loopback cost. The entry-consistency baseline uses
//     this for lock managers that land on the requesting host (probability
//     1/n, as in the paper).
package netmodel

import (
	"time"

	"sdso/internal/vtime"
)

// Params describes a cluster network.
type Params struct {
	// BandwidthBps is the per-NIC bandwidth in bits per second.
	BandwidthBps float64
	// Propagation is the fixed one-way latency added to every remote
	// message (switch forwarding plus protocol-stack traversal).
	Propagation time.Duration
	// SendCPU and RecvCPU model per-message protocol processing on the
	// hosts. SendCPU delays when the message enters the sender NIC;
	// RecvCPU is added after the downlink delivers it.
	SendCPU time.Duration
	RecvCPU time.Duration
	// Loopback is the total delay for a message between co-located
	// processes (same host), replacing all of the above.
	Loopback time.Duration
	// HostOf maps a vtime process ID to a host ID. Nil means every
	// process is its own host.
	HostOf func(proc int) int
}

// Ethernet10Mbps returns parameters approximating the paper's testbed.
// A 2048-byte message takes ~1.64 ms of NIC time at 10 Mbps; 1996-era
// TCP/IP round trips on this class of hardware were on the order of a few
// milliseconds.
func Ethernet10Mbps() Params {
	return Params{
		BandwidthBps: 10e6,
		Propagation:  500 * time.Microsecond,
		SendCPU:      150 * time.Microsecond,
		RecvCPU:      150 * time.Microsecond,
		Loopback:     50 * time.Microsecond,
	}
}

// Cluster is a stateful vtime.LinkModel: it tracks per-host NIC busy times
// so concurrent transmissions serialize. It must only be used from a single
// simulation (vtime invokes it deterministically).
type Cluster struct {
	p        Params
	upFree   map[int]vtime.Time // host -> uplink free-at
	downFree map[int]vtime.Time // host -> downlink free-at
}

var _ vtime.LinkModel = (*Cluster)(nil)

// NewCluster returns a Cluster link model with the given parameters.
func NewCluster(p Params) *Cluster {
	return &Cluster{
		p:        p,
		upFree:   make(map[int]vtime.Time),
		downFree: make(map[int]vtime.Time),
	}
}

func (c *Cluster) host(proc int) int {
	if c.p.HostOf == nil {
		return proc
	}
	return c.p.HostOf(proc)
}

// txTime is the NIC serialization time for size bytes.
func (c *Cluster) txTime(size int) vtime.Time {
	if c.p.BandwidthBps <= 0 {
		return 0
	}
	bits := float64(size) * 8
	return vtime.Time(bits / c.p.BandwidthBps * float64(time.Second))
}

// Delivery implements vtime.LinkModel.
func (c *Cluster) Delivery(from, to, size int, now vtime.Time) vtime.Time {
	src, dst := c.host(from), c.host(to)
	if src == dst {
		return now + c.p.Loopback
	}
	tx := c.txTime(size)

	// Sender: CPU cost, then wait for the uplink, then transmit.
	start := now + c.p.SendCPU
	if f := c.upFree[src]; f > start {
		start = f
	}
	upDone := start + tx
	c.upFree[src] = upDone

	// Switch: store-and-forward plus propagation, then the receiver's
	// downlink serializes incoming traffic.
	arrive := upDone + c.p.Propagation
	if f := c.downFree[dst]; f > arrive {
		arrive = f
	}
	downDone := arrive + tx
	c.downFree[dst] = downDone

	return downDone + c.p.RecvCPU
}
