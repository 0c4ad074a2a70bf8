package invariant

import (
	"strings"
	"testing"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
)

// clock is a settable time source.
type clock struct{ at time.Duration }

func (c *clock) now() time.Duration { return c.at }

func newChecker(t *testing.T, mut func(*Config)) (*Checker, *clock) {
	t.Helper()
	clk := &clock{}
	cfg := Config{Now: clk.now}
	if mut != nil {
		mut(&cfg)
	}
	chk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return chk, clk
}

func firstRule(t *testing.T, chk *Checker, want string) Violation {
	t.Helper()
	vs := chk.Violations()
	if len(vs) == 0 {
		t.Fatalf("no violations recorded, want %q", want)
	}
	if vs[0].Rule != want {
		t.Fatalf("first violation rule = %q, want %q\n%v", vs[0].Rule, want, vs[0])
	}
	return vs[0]
}

func TestNewRequiresClock(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil clock")
	}
}

func TestCleanObservationsPass(t *testing.T) {
	chk, clk := newChecker(t, nil)
	chk.NodeEvent(1, 0, node.Event{Kind: node.EventStateChange, State: "idle"})
	chk.StorageOp(1, true, 1, 0, 22)
	chk.StorageOp(1, true, 1, 1, 22)
	chk.StorageOp(1, false, 1, 0, 22) // reads never violate
	clk.at = time.Second
	chk.NodeEvent(1, clk.at, node.Event{Kind: node.EventGotSegment, Seg: 1})
	chk.PacketSent(1, &packet.Advertise{Src: 1, ProgramID: 1, ProgramSegments: 1, SegID: 1, SegNominal: 2, TotalPackets: 2}, time.Millisecond)
	if err := chk.Err(); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
	chk.Check(t) // must not fail the test
}

func TestWriteOnceViolation(t *testing.T) {
	chk, clk := newChecker(t, nil)
	chk.StorageOp(3, true, 2, 7, 22)
	clk.at = 5 * time.Second
	chk.StorageOp(3, true, 2, 7, 22)
	v := firstRule(t, chk, "write-once-eeprom")
	if v.Node != 3 || v.At != 5*time.Second {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Detail, "(seg 2, pkt 7)") {
		t.Fatalf("detail %q does not name the slot", v.Detail)
	}
	// The error must carry a trace excerpt of the offending node.
	msg := chk.Err().Error()
	if !strings.Contains(msg, "trace excerpt") || !strings.Contains(msg, "eeprom write s2/p7") {
		t.Fatalf("error lacks trace excerpt:\n%s", msg)
	}
}

func TestEraseResetsWriteOnceEpoch(t *testing.T) {
	chk, _ := newChecker(t, nil)
	chk.StorageOp(1, true, 1, 0, 22)
	chk.NodeEvent(1, 0, node.Event{Kind: node.EventStoreErased})
	chk.StorageOp(1, true, 1, 0, 22) // new program epoch: legal
	if err := chk.Err(); err != nil {
		t.Fatalf("post-erase rewrite flagged: %v", err)
	}
}

func TestInOrderSegmentViolation(t *testing.T) {
	chk, _ := newChecker(t, nil)
	chk.NodeEvent(4, 0, node.Event{Kind: node.EventGotSegment, Seg: 1})
	chk.NodeEvent(4, 0, node.Event{Kind: node.EventGotSegment, Seg: 3}) // skipped 2
	v := firstRule(t, chk, "in-order-segments")
	if !strings.Contains(v.Detail, "segment 3 after segment 1") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestEraseResetsSegmentOrder(t *testing.T) {
	chk, _ := newChecker(t, nil)
	chk.NodeEvent(4, 0, node.Event{Kind: node.EventGotSegment, Seg: 1})
	chk.NodeEvent(4, 0, node.Event{Kind: node.EventGotSegment, Seg: 2})
	chk.NodeEvent(4, 0, node.Event{Kind: node.EventStoreErased})
	chk.NodeEvent(4, 0, node.Event{Kind: node.EventGotSegment, Seg: 1})
	if err := chk.Err(); err != nil {
		t.Fatalf("post-erase segment restart flagged: %v", err)
	}
}

func TestAdvertiseSoundnessViolation(t *testing.T) {
	chk, _ := newChecker(t, nil)
	// Node 2 holds only 1 of segment 1's 3 packets but advertises it.
	chk.StorageOp(2, true, 1, 0, 22)
	chk.PacketSent(2, &packet.Advertise{Src: 2, ProgramID: 1, ProgramSegments: 1, SegID: 1, SegNominal: 3, TotalPackets: 3}, time.Millisecond)
	v := firstRule(t, chk, "advertise-soundness")
	if !strings.Contains(v.Detail, "holds 1/3 packets of segment 1") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestAdvertiseSoundnessShortFinalSegment(t *testing.T) {
	chk, _ := newChecker(t, nil)
	// 5 packets at nominal 3: segment 1 holds 3, segment 2 holds 2.
	for pkt := 0; pkt < 3; pkt++ {
		chk.StorageOp(6, true, 1, pkt, 22)
	}
	chk.StorageOp(6, true, 2, 0, 22)
	chk.StorageOp(6, true, 2, 1, 22)
	chk.PacketSent(6, &packet.Advertise{Src: 6, ProgramID: 1, ProgramSegments: 2, SegID: 2, SegNominal: 3, TotalPackets: 5}, time.Millisecond)
	if err := chk.Err(); err != nil {
		t.Fatalf("full short final segment flagged: %v", err)
	}
}

func TestTransmitInSleepViolation(t *testing.T) {
	chk, clk := newChecker(t, nil)
	chk.NodeEvent(5, 0, node.Event{Kind: node.EventStateChange, State: "sleep"})
	clk.at = time.Minute
	chk.PacketSent(5, &packet.Data{Src: 5, ProgramID: 1, SegID: 1, PacketID: 0}, time.Millisecond)
	firstRule(t, chk, "no-transmit-in-sleep")
}

func TestRadioOnInSleepViolation(t *testing.T) {
	chk, clk := newChecker(t, nil)
	chk.NodeEvent(5, 0, node.Event{Kind: node.EventStateChange, State: "sleep"})
	chk.RadioState(5, time.Second, true)
	// Still asleep at a strictly later instant: the power-up stands.
	clk.at = 2 * time.Second
	chk.RadioState(5, 2*time.Second, false)
	firstRule(t, chk, "sleep-radio-off")
}

func TestWakeupSameInstantIsLegal(t *testing.T) {
	chk, clk := newChecker(t, nil)
	chk.NodeEvent(5, 0, node.Event{Kind: node.EventStateChange, State: "sleep"})
	// Waking emits radio-on then the state change at the same instant.
	clk.at = time.Minute
	chk.RadioState(5, time.Minute, true)
	chk.NodeEvent(5, time.Minute, node.Event{Kind: node.EventStateChange, State: "download"})
	clk.at = 2 * time.Minute
	chk.RadioState(5, 2*time.Minute, false)
	if err := chk.Err(); err != nil {
		t.Fatalf("legal wakeup flagged: %v", err)
	}
}

func TestRadioOnInSleepAllowedByConfig(t *testing.T) {
	chk, clk := newChecker(t, func(c *Config) { c.AllowRadioOnInSleep = true })
	chk.NodeEvent(5, 0, node.Event{Kind: node.EventStateChange, State: "sleep"})
	chk.RadioState(5, time.Second, true)
	clk.at = 2 * time.Second
	chk.RadioState(5, 2*time.Second, false)
	if err := chk.Err(); err != nil {
		t.Fatalf("NoSleep ablation flagged: %v", err)
	}
}

func TestSenderExclusivityBudget(t *testing.T) {
	chk, clk := newChecker(t, func(c *Config) {
		c.Neighbor = func(a, b packet.NodeID) bool { return true }
		c.Airtime = func(bytes int) time.Duration { return time.Second }
		c.SenderOverlapBudget = 2
	})
	data := func(src packet.NodeID) *packet.Data {
		return &packet.Data{Src: src, ProgramID: 1, SegID: 1, PacketID: 0}
	}
	chk.PacketSent(1, data(1), time.Second)
	chk.PacketSent(2, data(2), time.Second) // overlap 1
	chk.PacketSent(3, data(3), time.Second) // overlaps 2 and 3
	if got := chk.Overlaps(); got != 3 {
		t.Fatalf("Overlaps = %d, want 3", got)
	}
	firstRule(t, chk, "single-sender-per-neighborhood")
	// Windows expire: a later lone sender adds no overlap.
	clk.at = time.Hour
	before := chk.Overlaps()
	chk.PacketSent(4, data(4), time.Second)
	if chk.Overlaps() != before {
		t.Fatalf("expired windows still counted")
	}
}

func TestSenderExclusivityIgnoresControlFrames(t *testing.T) {
	chk, _ := newChecker(t, func(c *Config) {
		c.Neighbor = func(a, b packet.NodeID) bool { return true }
		c.Airtime = func(bytes int) time.Duration { return time.Second }
		c.SenderOverlapBudget = 1
	})
	adv := &packet.Advertise{ProgramID: 1, ProgramSegments: 1, SegID: 0, SegNominal: 1, TotalPackets: 1}
	// SegID 0 advertisements carry no held-segment claim; many
	// concurrent ones are normal protocol behavior.
	adv0 := *adv
	adv0.Src = 1
	adv1 := *adv
	adv1.Src = 2
	chk.PacketSent(1, &adv0, time.Second)
	chk.PacketSent(2, &adv1, time.Second)
	if got := chk.Overlaps(); got != 0 {
		t.Fatalf("control frames counted as data overlaps: %d", got)
	}
}

func TestRebootClearsRAMStateOnly(t *testing.T) {
	chk, clk := newChecker(t, nil)
	chk.StorageOp(7, true, 1, 0, 22)
	chk.NodeEvent(7, 0, node.Event{Kind: node.EventStateChange, State: "sleep"})
	clk.at = time.Second
	chk.NodeEvent(7, time.Second, node.Event{Kind: node.EventRebooted})
	// Fresh instance transmits immediately: not a sleep violation,
	// sleep state died with RAM.
	chk.PacketSent(7, &packet.DownloadRequest{Src: 7, DestID: 0}, time.Millisecond)
	if err := chk.Err(); err != nil {
		t.Fatalf("post-reboot transmit flagged: %v", err)
	}
	// But EEPROM state survives the reboot: rewriting is still caught.
	chk.StorageOp(7, true, 1, 0, 22)
	firstRule(t, chk, "write-once-eeprom")
}

func TestOnViolationFiresImmediately(t *testing.T) {
	var seen []Violation
	chk, _ := newChecker(t, func(c *Config) {
		c.OnViolation = func(v Violation) { seen = append(seen, v) }
	})
	chk.StorageOp(1, true, 1, 0, 22)
	chk.StorageOp(1, true, 1, 0, 22)
	if len(seen) != 1 || seen[0].Rule != "write-once-eeprom" {
		t.Fatalf("OnViolation saw %+v", seen)
	}
}

func TestErrSummarizesFurtherViolations(t *testing.T) {
	chk, _ := newChecker(t, nil)
	chk.StorageOp(1, true, 1, 0, 22)
	chk.StorageOp(1, true, 1, 0, 22)
	chk.StorageOp(1, true, 1, 0, 22)
	err := chk.Err()
	if err == nil || !strings.Contains(err.Error(), "+1 further violation") {
		t.Fatalf("Err = %v", err)
	}
}

func TestGossipBeaconSoundness(t *testing.T) {
	chk, _ := newChecker(t, nil)
	// Node 5 holds all 3 packets of segment 1 and 1 of segment 2, and
	// beacons exactly that: legal.
	for pkt := 0; pkt < 3; pkt++ {
		chk.StorageOp(5, true, 1, pkt, 22)
	}
	chk.StorageOp(5, true, 2, 0, 22)
	chk.PacketSent(5, &packet.GossipAdv{Src: 5, ProgramID: 1, Segments: 2,
		SegPackets: 3, TotalPackets: 5, PayloadLen: 22, Tail: 22,
		CompleteSegs: 1, Have: 1}, time.Millisecond)
	if err := chk.Err(); err != nil {
		t.Fatalf("sound beacon flagged: %v", err)
	}
	// Claiming 2 packets of segment 2 while holding 1 is the churn bug
	// this rule exists for (a reboot or handoff resuming RAM state the
	// flash never held).
	chk.PacketSent(5, &packet.GossipAdv{Src: 5, ProgramID: 1, Segments: 2,
		SegPackets: 3, TotalPackets: 5, PayloadLen: 22, Tail: 22,
		CompleteSegs: 1, Have: 2}, time.Millisecond)
	v := firstRule(t, chk, "advertisement-soundness-under-churn")
	if !strings.Contains(v.Detail, "claims 2 packets of segment 2 but holds 1") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestGossipBeaconSoundnessCompleteSegs(t *testing.T) {
	chk, _ := newChecker(t, nil)
	// Node 7 holds 2 of segment 1's 3 packets but beacons it complete.
	chk.StorageOp(7, true, 1, 0, 22)
	chk.StorageOp(7, true, 1, 1, 22)
	chk.PacketSent(7, &packet.GossipAdv{Src: 7, ProgramID: 1, Segments: 2,
		SegPackets: 3, TotalPackets: 5, PayloadLen: 22, Tail: 22,
		CompleteSegs: 1}, time.Millisecond)
	v := firstRule(t, chk, "advertisement-soundness-under-churn")
	if !strings.Contains(v.Detail, "holds 2/3 packets of segment 1") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestGossipBeaconSurvivesReboot(t *testing.T) {
	chk, _ := newChecker(t, nil)
	// EEPROM-backed claims stay sound across a reboot: the write log is
	// not RAM state, so the resumed node's beacon still checks out.
	for pkt := 0; pkt < 3; pkt++ {
		chk.StorageOp(8, true, 1, pkt, 22)
	}
	chk.NodeEvent(8, time.Second, node.Event{Kind: node.EventRebooted})
	chk.PacketSent(8, &packet.GossipAdv{Src: 8, ProgramID: 1, Segments: 2,
		SegPackets: 3, TotalPackets: 5, PayloadLen: 22, Tail: 22,
		CompleteSegs: 1}, time.Millisecond)
	if err := chk.Err(); err != nil {
		t.Fatalf("post-reboot beacon flagged: %v", err)
	}
	// But beaconing past the image is degenerate regardless of writes.
	chk.PacketSent(8, &packet.GossipAdv{Src: 8, ProgramID: 1, Segments: 2,
		SegPackets: 3, TotalPackets: 5, PayloadLen: 22, Tail: 22,
		CompleteSegs: 3}, time.Millisecond)
	v := firstRule(t, chk, "advertisement-soundness-under-churn")
	if !strings.Contains(v.Detail, "claims 3 complete segments of a 2-segment image") {
		t.Fatalf("detail = %q", v.Detail)
	}
}
