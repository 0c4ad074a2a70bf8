package gossip

import (
	"errors"
	"testing"
	"time"

	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// testImage is a two-segment image whose second segment is short: four
// packets, then three, the last one 17 bytes.
func testImage(t testing.TB) *image.Image {
	t.Helper()
	data := make([]byte, 6*image.DefaultPayloadSize+17)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	im, err := image.New(1, data, image.WithSegmentPackets(4))
	if err != nil {
		t.Fatal(err)
	}
	if im.Segments() != 2 {
		t.Fatalf("test image has %d segments, want 2", im.Segments())
	}
	return im
}

// beacon is the GossipAdv a holder of im that has completed complete
// segments and holds have packets of the next one would send.
func beacon(im *image.Image, src packet.NodeID, complete, have int) *packet.GossipAdv {
	return &packet.GossipAdv{
		Src:          src,
		ProgramID:    im.ProgramID(),
		Segments:     uint8(im.Segments()),
		SegPackets:   uint8(im.SegmentPackets()),
		TotalPackets: uint16(im.TotalPackets()),
		PayloadLen:   uint8(im.PayloadSize()),
		Tail:         uint8(im.Size() - (im.TotalPackets()-1)*im.PayloadSize()),
		CompleteSegs: uint8(complete),
		Have:         uint8(have),
	}
}

// data is packet pkt (0-based) of segment seg as a push carries it.
func data(t testing.TB, im *image.Image, src packet.NodeID, seg, pkt int) *packet.GossipData {
	t.Helper()
	payload, err := im.Payload(seg, pkt)
	if err != nil {
		t.Fatal(err)
	}
	return &packet.GossipData{Src: src, ProgramID: im.ProgramID(), Seg: uint8(seg), Pkt: uint8(pkt + 1), Payload: payload}
}

// receiver is a fresh non-base node.
func receiver() (*nodetest.Runtime, *Gossip) {
	rt := nodetest.New(1)
	g := New(DefaultConfig())
	rt.Attach(g)
	return rt, g
}

// claim fires the node's beacon timer and returns the beacon it sent.
func claim(t *testing.T, rt *nodetest.Runtime) *packet.GossipAdv {
	t.Helper()
	n := len(rt.Sent)
	if !rt.Fire(timerAdvertise) {
		t.Fatal("no beacon timer pending")
	}
	if len(rt.Sent) != n+1 {
		t.Fatalf("beacon tick sent %d packets, want 1", len(rt.Sent)-n)
	}
	adv, ok := rt.Sent[n].(*packet.GossipAdv)
	if !ok {
		t.Fatalf("beacon tick sent %T", rt.Sent[n])
	}
	return adv
}

func TestBaseClaimsWholeImage(t *testing.T) {
	im := testImage(t)
	rt := nodetest.New(0)
	rt.Attach(New(Config{Base: true, Image: im}))
	if !rt.Done || rt.EEPROM.Slots() != im.TotalPackets() {
		t.Fatalf("base done=%v with %d slots, want the %d-packet image", rt.Done, rt.EEPROM.Slots(), im.TotalPackets())
	}
	if got, want := *claim(t, rt), *beacon(im, 0, 2, 0); got != want {
		t.Fatalf("base beacon %+v, want %+v", got, want)
	}
}

// TestBeaconClaimsTrackStorage checks that the CompleteSegs/Have a
// receiver beacons always describe what its EEPROM holds, packet by
// packet through both segments.
func TestBeaconClaimsTrackStorage(t *testing.T) {
	im := testImage(t)
	rt, _ := receiver()
	if rt.TimerPending(timerAdvertise) {
		t.Fatal("receiver beacons before it knows the image")
	}
	rt.Deliver(beacon(im, 0, 2, 0), 0)
	if got := claim(t, rt); got.CompleteSegs != 0 || got.Have != 0 || got.TotalPackets != uint16(im.TotalPackets()) {
		t.Fatalf("fresh receiver claims %+v", got)
	}
	for seg := 1; seg <= 2; seg++ {
		k, _ := im.PacketsIn(seg)
		for _, pkt := range []int{2, 0, 1, 3, 4, 5, 6}[:k] {
			rt.Deliver(data(t, im, 0, seg, pkt), 0)
			complete, have := seg-1, rt.EEPROM.Slots()-4*(seg-1)
			if have == k {
				complete, have = seg, 0
			}
			if got := claim(t, rt); int(got.CompleteSegs) != complete || int(got.Have) != have {
				t.Fatalf("after seg %d pkt %d: claims %d/%d, want %d/%d", seg, pkt, got.CompleteSegs, got.Have, complete, have)
			}
		}
	}
	if !rt.Done {
		t.Fatal("receiver holding the whole image never completed")
	}
	var segEvents []int
	for _, ev := range rt.Events {
		if ev.Kind == node.EventGotSegment {
			segEvents = append(segEvents, ev.Seg)
		}
	}
	if len(segEvents) != 2 || segEvents[0] != 1 || segEvents[1] != 2 {
		t.Fatalf("segment events %v, want [1 2]", segEvents)
	}
	got, err := im.Reassemble(rt.EEPROM.Read)
	if err != nil || !im.Verify(got) {
		t.Fatalf("reassembled image does not verify (err %v)", err)
	}
}

// TestLearnRecoversFlash checks the reboot path: a node whose flash
// survived with segment 1 and two packets of segment 2 claims exactly
// that once the first beacon gives it the geometry again.
func TestLearnRecoversFlash(t *testing.T) {
	im := testImage(t)
	rt := nodetest.New(1)
	for _, sp := range [][2]int{{1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 0}, {2, 2}} {
		p, _ := im.Payload(sp[0], sp[1])
		if err := rt.EEPROM.Write(sp[0], sp[1], p); err != nil {
			t.Fatal(err)
		}
	}
	rt.Attach(New(DefaultConfig()))
	rt.Deliver(beacon(im, 0, 2, 0), 0)
	if got := claim(t, rt); got.CompleteSegs != 1 || got.Have != 2 {
		t.Fatalf("rebooted node claims %d/%d, want 1/2", got.CompleteSegs, got.Have)
	}
	// The surviving packets are not written again; the missing one
	// completes the image.
	rt.Deliver(data(t, im, 0, 2, 0), 0)
	rt.Deliver(data(t, im, 0, 2, 1), 0)
	if !rt.Done {
		t.Fatal("missing packet did not complete the image")
	}
	if w := rt.EEPROM.MaxWriteCount(); w != 1 {
		t.Fatalf("max write count %d after recovery, want 1", w)
	}
}

// TestStorageInOrderWriteOnce covers what the receive side refuses:
// data before the geometry is known, a foreign program, a segment
// ahead of the pipeline, an out-of-range packet, and duplicates.
func TestStorageInOrderWriteOnce(t *testing.T) {
	im := testImage(t)
	rt, _ := receiver()
	rt.Deliver(data(t, im, 0, 1, 0), 0)
	if rt.EEPROM.Slots() != 0 {
		t.Fatal("stored data before any beacon")
	}
	rt.Deliver(beacon(im, 0, 2, 0), 0)

	foreign := data(t, im, 0, 1, 0)
	foreign.ProgramID++
	rt.Deliver(foreign, 0)
	rt.Deliver(data(t, im, 0, 2, 0), 0) // segment 2 before segment 1
	for _, pkt := range []uint8{0, 5} {
		d := data(t, im, 0, 1, 0)
		d.Pkt = pkt // 1-based: 0 and 5 lie outside the 4-packet segment
		rt.Deliver(d, 0)
	}
	if rt.EEPROM.Slots() != 0 {
		t.Fatalf("stored %d rejected packets", rt.EEPROM.Slots())
	}

	for i := 0; i < 3; i++ {
		rt.Deliver(data(t, im, packet.NodeID(i), 1, 1), packet.NodeID(i))
	}
	if rt.EEPROM.Slots() != 1 || rt.EEPROM.WriteCount(1, 1) != 1 {
		t.Fatalf("duplicate pushes: %d slots, slot written %d times", rt.EEPROM.Slots(), rt.EEPROM.WriteCount(1, 1))
	}
}

// TestFlashFaultRetried checks that a failed EEPROM write leaves the
// packet unclaimed, so the next push of it is stored.
func TestFlashFaultRetried(t *testing.T) {
	im := testImage(t)
	rt, _ := receiver()
	rt.Deliver(beacon(im, 0, 2, 0), 0)
	rt.EEPROM.SetWriteFault(func(seg, pkt int) error { return errors.New("bad page") })
	rt.Deliver(data(t, im, 0, 1, 0), 0)
	rt.EEPROM.SetWriteFault(nil)
	if got := claim(t, rt); got.Have != 0 {
		t.Fatalf("claims %d packets after a failed write", got.Have)
	}
	rt.Deliver(data(t, im, 0, 1, 0), 0)
	if got := claim(t, rt); got.Have != 1 || rt.EEPROM.WriteCount(1, 0) != 1 {
		t.Fatalf("retry: claims %d, slot written %d times", got.Have, rt.EEPROM.WriteCount(1, 0))
	}
}

// pushes runs the holder's timers until simulated time reaches until
// and returns the send time of every GossipData it pushed.
func pushes(t *testing.T, rt *nodetest.Runtime, until time.Duration) []time.Duration {
	t.Helper()
	var at []time.Duration
	for rt.Clock < until {
		n := len(rt.Sent)
		if !rt.FireNext() {
			break
		}
		for _, p := range rt.Sent[n:] {
			if d, ok := p.(*packet.GossipData); ok {
				if d.Seg != 1 {
					t.Fatalf("pushed segment %d, want the lagging neighbor's segment 1", d.Seg)
				}
				at = append(at, rt.Clock)
			}
		}
	}
	return at
}

// TestDemandTTL covers the infect-and-die rule: a lagging beacon makes
// a holder push the neighbor's next segment for DemandTTL and no
// longer; a fresh lagging beacon extends the infection; beacons from
// neighbors that are not behind never start one.
func TestDemandTTL(t *testing.T) {
	im := testImage(t)
	cfg := Config{Base: true, Image: im}
	ttl := DefaultConfig().DemandTTL

	t.Run("up-to-date-neighbor", func(t *testing.T) {
		rt := nodetest.New(0)
		rt.Attach(New(cfg))
		rt.Deliver(beacon(im, 5, 2, 0), 5)
		if rt.TimerPending(timerData) {
			t.Fatal("an up-to-date neighbor infected the holder")
		}
	})

	t.Run("dies-after-ttl", func(t *testing.T) {
		rt := nodetest.New(0)
		rt.Attach(New(cfg))
		rt.Deliver(beacon(im, 5, 0, 0), 5)
		at := pushes(t, rt, 3*ttl)
		if len(at) < 4 {
			t.Fatalf("only %d pushes during the infection", len(at))
		}
		if last := at[len(at)-1]; last >= ttl {
			t.Fatalf("pushed at %v, after the %v TTL", last, ttl)
		}
		if rt.TimerPending(timerData) {
			t.Fatal("push timer still armed after the infection died")
		}
	})

	t.Run("refreshed", func(t *testing.T) {
		rt := nodetest.New(0)
		rt.Attach(New(cfg))
		rt.Deliver(beacon(im, 5, 0, 0), 5)
		pushes(t, rt, ttl-time.Second)
		refresh := rt.Clock
		rt.Deliver(beacon(im, 6, 0, 0), 6)
		pushes(t, rt, refresh+ttl-time.Second)
		// A beacon needing segment 2 does not refresh a segment-1
		// infection.
		rt.Deliver(beacon(im, 7, 1, 0), 7)
		at := pushes(t, rt, refresh+3*ttl)
		if last := at[len(at)-1]; last < ttl || last >= refresh+ttl {
			t.Fatalf("last push at %v, want within [%v, %v)", last, ttl, refresh+ttl)
		}
	})
}

// FuzzGossip is the gossip counterpart of core's FuzzMNPPacketSequence:
// the fuzzer mutates raw frame bytes fed to a receiver, so beacons can
// announce any geometry and pushes any segment, packet, or payload.
// For every input the protocol must not panic, every EEPROM slot must
// be written at most once, storage must stay strictly in segment order,
// and the node's own claims (CompleteSegs, Have) must match its flash.
//
// Input framing: repeated chunks of [len][len bytes of frame][fires],
// where fires%4 timers are dispatched after the frame. Undecodable
// frames are skipped, as a real node drops them.
func FuzzGossip(f *testing.F) {
	im := testImage(f)
	for _, p := range []packet.Packet{
		beacon(im, 0, 2, 0),
		beacon(im, 3, 0, 1),
		data(f, im, 0, 1, 0),
		data(f, im, 0, 2, 2),
	} {
		frame := packet.Encode(p)
		chunk := append([]byte{byte(len(frame))}, frame...)
		f.Add(append(chunk, 1))
	}
	var seq []byte
	for _, p := range []packet.Packet{beacon(im, 0, 2, 0), data(f, im, 0, 1, 0), data(f, im, 0, 1, 0), beacon(im, 2, 0, 0)} {
		frame := packet.Encode(p)
		seq = append(append(append(seq, byte(len(frame))), frame...), 3)
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, in []byte) {
		rt := nodetest.New(1)
		g := New(DefaultConfig())
		rt.Attach(g)
		for len(in) > 0 {
			n := int(in[0])
			in = in[1:]
			if n > len(in) {
				n = len(in)
			}
			frame := in[:n]
			in = in[n:]
			if p, err := packet.Decode(frame); err == nil {
				from := packet.NodeID(0)
				if s, ok := p.(interface{ Source() packet.NodeID }); ok {
					from = s.Source()
				}
				rt.Deliver(p, from)
			}
			if len(in) > 0 {
				fires := int(in[0] % 4)
				in = in[1:]
				for i := 0; i < fires && rt.FireNext(); i++ {
				}
			}
		}
		if w := rt.EEPROM.MaxWriteCount(); w > 1 {
			t.Fatalf("frames broke EEPROM write-once (max %d writes)", w)
		}
		if !g.known {
			if rt.EEPROM.Slots() != 0 {
				t.Fatalf("stored %d packets without knowing the image", rt.EEPROM.Slots())
			}
			return
		}
		// Segments 1..completeSegs are full, segment completeSegs+1
		// holds exactly have packets, and nothing lies beyond it.
		stored := 0
		for seg := 1; seg <= g.segments; seg++ {
			held := 0
			for pkt := 0; pkt < 256; pkt++ {
				if rt.HasPacket(seg, pkt) {
					held++
				}
			}
			stored += held
			switch {
			case seg <= g.completeSegs:
				if held != g.packetsIn(seg) {
					t.Fatalf("segment %d claimed complete but holds %d/%d packets", seg, held, g.packetsIn(seg))
				}
			case seg == g.completeSegs+1:
				if held != g.have {
					t.Fatalf("segment %d claims %d packets but holds %d", seg, g.have, held)
				}
			case held > 0:
				t.Fatalf("segment %d holds %d packets ahead of the pipeline at %d", seg, held, g.completeSegs)
			}
		}
		if stored != rt.EEPROM.Slots() {
			t.Fatalf("%d slots stored outside the learned geometry", rt.EEPROM.Slots()-stored)
		}
	})
}
