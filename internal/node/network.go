package node

import (
	"fmt"
	"time"

	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// Network assembles one node per layout position and runs them against
// a shared medium.
type Network struct {
	Kernel *sim.Kernel
	Medium *radio.Medium
	Layout *topology.Layout
	Nodes  []*Node

	// factory is kept so crashed nodes can be rebooted with a fresh
	// protocol instance (Restart).
	factory Factory

	// satisfiedCursor counts the leading nodes known to be dead or
	// completed. Both conditions are monotone for a run, so AllCompleted
	// only ever rechecks the first node that wasn't — RunUntilComplete
	// evaluates the predicate after every event, and a full O(N) scan
	// there dominated large-grid runs.
	satisfiedCursor int
}

// Factory produces the protocol instance and harness config for node
// id. The base station typically gets a source-role protocol.
type Factory func(id packet.NodeID) (Protocol, Config)

// NewNetwork builds all nodes. Protocols are not started until Start.
func NewNetwork(k *sim.Kernel, m *radio.Medium, layout *topology.Layout, f Factory, obs Observer) (*Network, error) {
	place := func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, obs }
	nw, err := NewPartitionedNetwork(layout, f, place)
	if err != nil {
		return nil, err
	}
	nw.Kernel, nw.Medium = k, m
	return nw, nil
}

// NewPartitionedNetwork builds all nodes, asking place for each node's
// runtime — its kernel, its medium (possibly a shard of the channel),
// and its observer. The sharded engine uses it to pin every node to the
// shard that owns it; the Network value itself stays a global facade
// (Restart, AllCompleted, CompletionTime span all shards), with Kernel
// and Medium left nil because no single pair drives the whole run.
func NewPartitionedNetwork(layout *topology.Layout, f Factory, place func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer)) (*Network, error) {
	if f == nil {
		return nil, fmt.Errorf("node: nil factory")
	}
	if place == nil {
		return nil, fmt.Errorf("node: nil placement")
	}
	nw := &Network{Layout: layout, factory: f}
	for i := 0; i < layout.N(); i++ {
		id := packet.NodeID(i)
		proto, cfg := f(id)
		k, m, obs := place(id)
		n, err := New(id, k, m, proto, cfg, obs)
		if err != nil {
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
		nw.Nodes = append(nw.Nodes, n)
	}
	return nw, nil
}

// Start initializes every node's protocol in ID order.
func (nw *Network) Start() {
	for _, n := range nw.Nodes {
		n.Start()
	}
}

// Node returns the node with the given ID.
func (nw *Network) Node(id packet.NodeID) *Node { return nw.Nodes[id] }

// Restart reboots a crashed node: the factory builds it a fresh
// protocol instance (RAM state is lost in the crash) while its EEPROM
// survives. The node's original harness config is kept.
func (nw *Network) Restart(id packet.NodeID) error {
	proto, _ := nw.factory(id)
	if err := nw.Nodes[id].Restart(proto); err != nil {
		return err
	}
	// The node may now be live-but-incomplete again; rewind the
	// monotone completion cursor so AllCompleted rechecks it.
	if int(id) < nw.satisfiedCursor {
		nw.satisfiedCursor = int(id)
	}
	return nil
}

// CompletedCount returns how many nodes hold the full program.
func (nw *Network) CompletedCount() int {
	c := 0
	for _, n := range nw.Nodes {
		if n.Completed() {
			c++
		}
	}
	return c
}

// AllCompleted reports whether every live node holds the full program
// (dead nodes are excluded: the paper requires coverage of the
// connected network).
func (nw *Network) AllCompleted() bool {
	for nw.satisfiedCursor < len(nw.Nodes) {
		n := nw.Nodes[nw.satisfiedCursor]
		if !n.Dead() && !n.Completed() {
			return false
		}
		nw.satisfiedCursor++
	}
	return true
}

// RunUntilComplete drives the simulation until every live node
// completes or limit passes; it reports whether full coverage was
// reached.
func (nw *Network) RunUntilComplete(limit time.Duration) bool {
	return nw.Kernel.RunUntil(nw.AllCompleted, limit)
}

// CompletionTime returns the time the last node completed — the
// paper's "completion time" metric. It is only meaningful when
// AllCompleted is true.
func (nw *Network) CompletionTime() time.Duration {
	var maxT time.Duration
	for _, n := range nw.Nodes {
		if n.Completed() && n.CompletedAt() > maxT {
			maxT = n.CompletedAt()
		}
	}
	return maxT
}
