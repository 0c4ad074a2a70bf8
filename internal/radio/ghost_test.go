package radio

import (
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// TestShardGhostCarriesRouting pins the ghost metadata the tiled
// engine's bounds prefilter consumes: a boundary transmission exports
// exactly one ghost stamped with the transmitter's position and range,
// and replaying it into the peer shard delivers to that shard's owned
// nodes. Ownership here is deliberately tile-shaped (a diagonal split,
// not a contiguous strip): shard A owns {0, 3}, shard B owns {1, 2}.
func TestShardGhostCarriesRouting(t *testing.T) {
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(1)
	geo, err := NewGeometry(layout, cleanParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ownA := []packet.NodeID{0, 3}
	ownB := []packet.NodeID{1, 2}
	mA, err := NewShardMedium(k, geo, ownA)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := NewShardMedium(k, geo, ownB)
	if err != nil {
		t.Fatal(err)
	}
	rx := map[packet.NodeID]int{}
	register := func(m *Medium, owned []packet.NodeID) {
		for _, id := range owned {
			id := id
			if err := m.Register(id, func(packet.Packet, RxMeta) { rx[id]++ }); err != nil {
				t.Fatal(err)
			}
			m.SetRadio(id, true)
		}
	}
	register(mA, ownA)
	register(mB, ownB)

	air, err := mA.Transmit(0, adv(0), PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	ghosts := mA.TakeOutbox()
	if len(ghosts) != 1 {
		t.Fatalf("got %d ghosts, want 1 (nodes 1 and 2 are in range and owned elsewhere)", len(ghosts))
	}
	g := ghosts[0]
	pos, err := layout.Pos(0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Src != 0 || g.X != pos.X || g.Y != pos.Y {
		t.Fatalf("ghost routing fields src=%v at (%g,%g), want node 0 at (%g,%g)",
			g.Src, g.X, g.Y, pos.X, pos.Y)
	}
	wantRange, err := geo.RangeFor(PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if g.RangeFt != wantRange {
		t.Fatalf("ghost RangeFt = %g, want the power-%d range %g", g.RangeFt, PowerSim, wantRange)
	}
	if g.Start != 0 || g.End != air || len(g.Frame) == 0 {
		t.Fatalf("ghost occupancy [%v,%v) frame %d bytes, want [0,%v) and a non-empty frame",
			g.Start, g.End, len(g.Frame), air)
	}
	if len(mA.TakeOutbox()) != 0 {
		t.Fatal("TakeOutbox did not drain the outbox")
	}

	// The ghost replays into B but must be rejected where its source
	// lives.
	if err := mB.InsertGhost(g); err != nil {
		t.Fatal(err)
	}
	if err := mA.InsertGhost(g); err == nil {
		t.Fatal("shard A accepted a ghost from its own node")
	}

	k.Run(time.Second)
	if rx[3] != 1 || mA.Deliveries() != 1 {
		t.Fatalf("shard A: node 3 rx=%d deliveries=%d, want 1 local delivery", rx[3], mA.Deliveries())
	}
	if rx[1] != 1 || rx[2] != 1 || mB.Deliveries() != 2 {
		t.Fatalf("shard B: rx[1]=%d rx[2]=%d deliveries=%d, want the ghost delivered to both",
			rx[1], rx[2], mB.Deliveries())
	}
}

// TestTakeOutboxReusesBacking: a drained outbox keeps its backing
// array, so the next boundary frame lands in the same storage instead
// of regrowing it every window — while ghost values the caller copied
// out, and their frames, stay intact for insertion.
func TestTakeOutboxReusesBacking(t *testing.T) {
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(1)
	geo, err := NewGeometry(layout, cleanParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := NewShardMedium(k, geo, []packet.NodeID{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	mA.SetRadio(0, true)
	if _, err := mA.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	first := mA.TakeOutbox()
	if len(first) != 1 {
		t.Fatalf("got %d ghosts, want 1", len(first))
	}
	kept := first[0]
	frame := append([]byte(nil), kept.Frame...)
	k.Run(time.Second)
	if _, err := mA.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	second := mA.TakeOutbox()
	if len(second) != 1 || &second[0] != &first[0] {
		t.Fatal("second boundary frame did not reuse the drained outbox's backing array")
	}
	if kept.Seq == second[0].Seq || string(kept.Frame) != string(frame) {
		t.Fatal("a copied-out ghost changed when the outbox was reused")
	}
}

// TestDeliveriesCountsOnlySuccess: the delivery counter the
// repartitioner reads must track successful receptions, not attempts —
// an out-of-range transmission moves nothing.
func TestDeliveriesCountsOnlySuccess(t *testing.T) {
	layout, err := topology.Line(2, 100) // 100 ft apart, PowerSim range 27 ft
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNet(t, layout, cleanParams())
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
	if got := n.m.Deliveries(); got != 0 {
		t.Fatalf("Deliveries() = %d after an out-of-range transmission, want 0", got)
	}
	close, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	n2 := newTestNet(t, close, cleanParams())
	n2.allOn()
	if _, err := n2.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n2.k.Run(time.Second)
	if got := n2.m.Deliveries(); got != 1 {
		t.Fatalf("Deliveries() = %d after an in-range transmission, want 1", got)
	}
}
