package radio

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// scanBusy is the carrier-sense reference Busy replaced: scan the
// active frames for one that has not ended and was sent by id or is
// audible at id.
func scanBusy(m *Medium, id packet.NodeID) bool {
	now := m.kernel.Now()
	for _, t := range m.active {
		if t.end <= now {
			continue
		}
		if t.src == id || t.posOf(id) >= 0 {
			return true
		}
	}
	return false
}

// checkBusy compares Busy against the scan for every node of every
// medium and returns how many nodes were busy.
func checkBusy(t *testing.T, ms ...*Medium) int {
	t.Helper()
	busy := 0
	for _, m := range ms {
		for id := 0; id < m.n; id++ {
			nid := packet.NodeID(id)
			got, want := m.Busy(nid), scanBusy(m, nid)
			if got != want {
				t.Fatalf("at %v: Busy(%v) = %v, active-frame scan says %v", m.kernel.Now(), nid, got, want)
			}
			if got {
				busy++
			}
		}
	}
	return busy
}

// advAirtime is the airtime of the test advertisement frame.
func advAirtime(m *Medium) time.Duration {
	return m.Airtime(len(packet.AppendEncode(nil, adv(0))))
}

// driveTraffic runs random overlapping transmissions through the
// kernel, checking carrier sense against the scan at random instants
// and at every frame's exact end instant before its finish runs. send
// attempts a transmission from a node; between, if set, runs after
// each batch.
func driveTraffic(t *testing.T, k *sim.Kernel, n int, send func(packet.NodeID), between func(*rand.Rand), ms ...*Medium) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	air := advAirtime(ms[0])
	busySeen, endProbes := 0, 0
	var step func()
	rounds := 0
	step = func() {
		busySeen += checkBusy(t, ms...)
		for i := rng.Intn(4); i >= 0; i-- {
			src := packet.NodeID(rng.Intn(n))
			// Scheduled before the frame's finish at the same instant,
			// so it runs first: the frame has ended but is still in the
			// active list.
			k.MustSchedule(air, func() {
				endProbes++
				checkBusy(t, ms...)
			})
			send(src)
		}
		if between != nil {
			between(rng)
		}
		busySeen += checkBusy(t, ms...)
		if rounds++; rounds < 400 {
			k.MustSchedule(time.Duration(rng.Int63n(int64(air))), step)
		}
	}
	k.MustSchedule(0, step)
	k.Run(time.Hour)
	checkBusy(t, ms...)
	if busySeen == 0 || endProbes == 0 {
		t.Fatalf("traffic never exercised carrier sense (busy %d, end probes %d)", busySeen, endProbes)
	}
}

func TestBusyMatchesActiveScan(t *testing.T) {
	layout, err := topology.Grid(8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	net := newTestNet(t, layout, DefaultParams())
	net.allOn()
	m := net.m
	ownFrames := 0
	send := func(src packet.NodeID) {
		if _, err := m.Transmit(src, adv(src), PowerSim); err != nil {
			return
		}
		// The node's own frame keeps its carrier busy.
		if !m.Busy(src) {
			t.Fatalf("node %v not busy during its own frame", src)
		}
		ownFrames++
	}
	driveTraffic(t, net.k, layout.N(), send, nil, m)
	if ownFrames == 0 {
		t.Fatal("no frame was transmitted")
	}
}

// Moving nodes while frames are in the air changes the link rows for
// later frames but not the audible lists in-flight frames borrowed:
// carrier sense must follow the frames, exactly as the scan does.
func TestBusyMatchesActiveScanUnderMoves(t *testing.T) {
	layout, err := topology.Grid(8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	net := newTestNet(t, layout, DefaultParams())
	net.allOn()
	m := net.m
	send := func(src packet.NodeID) { m.Transmit(src, adv(src), PowerSim) }
	moves := 0
	between := func(rng *rand.Rand) {
		if rng.Intn(2) == 0 {
			id := packet.NodeID(rng.Intn(layout.N()))
			m.Geometry().MoveNode(id, topology.Point{X: rng.Float64() * 70, Y: rng.Float64() * 70})
			moves++
		}
	}
	driveTraffic(t, net.k, layout.N(), send, between, m)
	if moves == 0 || m.Geometry().Moves() == 0 {
		t.Fatal("no node moved")
	}
}

// On a sharded medium, boundary frames arrive as ghosts: their
// audible lists must raise carrier sense on the receiving shard just
// as the scan over its active frames (ghosts included) does.
func TestBusyMatchesActiveScanWithGhosts(t *testing.T) {
	layout, err := topology.Grid(8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(1)
	geo, err := NewGeometry(layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var own [2][]packet.NodeID
	for id := 0; id < layout.N(); id++ {
		half := 0
		if id%8 >= 4 {
			half = 1
		}
		own[half] = append(own[half], packet.NodeID(id))
	}
	var ms [2]*Medium
	owner := make([]int, layout.N())
	for s := range ms {
		if ms[s], err = NewShardMedium(k, geo, own[s]); err != nil {
			t.Fatal(err)
		}
		for _, id := range own[s] {
			owner[id] = s
			if err := ms[s].Register(id, func(packet.Packet, RxMeta) {}); err != nil {
				t.Fatal(err)
			}
			ms[s].SetRadio(id, true)
		}
	}
	ghosts := 0
	send := func(src packet.NodeID) {
		s := owner[src]
		if _, err := ms[s].Transmit(src, adv(src), PowerSim); err != nil {
			return
		}
		// Replay boundary frames into the other shard at once: same
		// kernel, so the ghost's end is still ahead.
		for _, g := range ms[s].TakeOutbox() {
			if err := ms[1-s].InsertGhost(g); err != nil {
				t.Fatal(err)
			}
			ghosts++
		}
	}
	driveTraffic(t, k, layout.N(), send, nil, ms[0], ms[1])
	if ghosts == 0 {
		t.Fatal("no ghost crossed the shard boundary")
	}
}

// The memoized success probabilities are exactly the floats the
// delivery loop computed per receiver before the memo.
func TestSuccessMemoMatchesPow(t *testing.T) {
	layout, err := topology.Grid(6, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	net := newTestNet(t, layout, DefaultParams())
	net.allOn()
	m := net.m
	sizes := map[int]bool{}
	for id := 0; id < layout.N(); id++ {
		src := packet.NodeID(id)
		frames := []packet.Packet{adv(src), &packet.Data{Src: src, ProgramID: 1, SegID: 1, PacketID: 3, Payload: make([]byte, 22)}}
		for _, p := range frames {
			if _, err := m.Transmit(src, p, PowerSim); err != nil {
				t.Fatal(err)
			}
			net.k.Run(net.k.Now() + time.Second)
		}
	}
	for _, row := range m.links {
		if row.succ == nil {
			t.Fatalf("row %+v has no memo after transmitting", row.key)
		}
		for memo := row.succ; memo != nil; memo = memo.next {
			sizes[memo.bytes] = true
			for i, ber := range row.ber {
				want := math.Pow(1-ber, float64(memo.bytes*8))
				if math.Float64bits(memo.p[i]) != math.Float64bits(want) {
					t.Fatalf("row %+v size %d receiver %d: memo %v, Pow %v", row.key, memo.bytes, i, memo.p[i], want)
				}
			}
		}
	}
	if len(sizes) != 2 {
		t.Fatalf("memoized frame sizes %v, want the two sent", sizes)
	}
}

// Rows whose region has seen a move are rebuilt constantly under
// mobility; they are not memoized, so mobility allocates no memo.
func TestSuccessMemoSkipsMovedRows(t *testing.T) {
	layout, err := topology.Grid(4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	net := newTestNet(t, layout, DefaultParams())
	net.allOn()
	m := net.m
	m.Geometry().MoveNode(5, topology.Point{X: 12, Y: 13})
	if _, err := m.Transmit(5, adv(5), PowerSim); err != nil {
		t.Fatal(err)
	}
	row := m.links[linkKey{power: PowerSim, src: 5}]
	if row == nil || row.stamp == 0 {
		t.Fatal("test premise broken: the mover's row is not stamped")
	}
	if row.succ != nil || m.active[0].succ != nil {
		t.Fatal("a moved row was memoized")
	}
	net.k.Run(time.Second)
	if len(net.rxs) == 0 {
		t.Fatal("unmemoized row delivered nothing")
	}
}
