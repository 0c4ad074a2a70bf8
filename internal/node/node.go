// Package node is the mote runtime harness: it gives a protocol state
// machine a Runtime (timers, CSMA MAC, radio power control, EEPROM,
// randomness, completion reporting) and drives it from the simulation
// kernel. Protocol logic is written once against Runtime and runs
// unchanged on this discrete-event harness and on the goroutine-based
// live runtime (internal/livenet).
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
)

// TimerID names a protocol timer. Each protocol defines its own
// constants; a node keyes pending timers by ID, and setting an ID
// replaces any pending timer with that ID.
type TimerID int

// Runtime is the mote-facing API protocols program against.
type Runtime interface {
	// ID returns this node's address.
	ID() packet.NodeID
	// Now returns the current time since simulation start.
	Now() time.Duration
	// Rand returns the node's deterministic RNG.
	Rand() *rand.Rand

	// Send queues p for CSMA broadcast at the current transmit power.
	Send(p packet.Packet) error
	// SetTimer schedules OnTimer(id) after d, replacing any pending
	// timer with the same ID.
	SetTimer(id TimerID, d time.Duration)
	// CancelTimer cancels the pending timer with the given ID, if any.
	CancelTimer(id TimerID)
	// TimerPending reports whether a timer with the given ID is set.
	TimerPending(id TimerID) bool

	// RadioOn powers the radio up; RadioOff powers it down (the node
	// then neither sends, receives, nor carrier-senses).
	RadioOn()
	RadioOff()
	// IsRadioOn reports the radio state.
	IsRadioOn() bool
	// SetTxPower selects the TinyOS power level for subsequent sends.
	SetTxPower(level int)
	// TxPower returns the current power level.
	TxPower() int

	// Store writes a received packet payload to EEPROM.
	Store(seg, pkt int, payload []byte) error
	// Load reads a payload back (nil if absent).
	Load(seg, pkt int) []byte
	// HasPacket reports whether (seg, pkt) is stored, without the cost
	// of a read.
	HasPacket(seg, pkt int) bool
	// EraseStore releases the EEPROM, as the fail state does.
	EraseStore()

	// Complete reports that this node holds the entire program.
	Complete()
	// Battery returns the node's remaining battery fraction in [0, 1];
	// the §6 battery-aware extension keys advertisement power off it.
	Battery() float64
	// Event publishes a protocol observation to the metrics layer.
	Event(ev Event)
}

// Protocol is a dissemination state machine.
type Protocol interface {
	// Init starts the protocol; called once, before any events.
	Init(rt Runtime)
	// OnPacket delivers a received frame.
	OnPacket(p packet.Packet, from packet.NodeID)
	// OnTimer delivers a timer expiry.
	OnTimer(id TimerID)
}

// EventKind classifies protocol observations.
type EventKind int

// Protocol observation kinds.
const (
	EventStateChange EventKind = iota + 1
	EventParentSet
	EventGotSegment
	EventGotCode
	EventBecameSender
	EventRebooted
	EventStoreErased
	EventDecodeOps
)

// Event is a protocol observation routed to the Observer.
type Event struct {
	Kind  EventKind
	State string        // EventStateChange: new state name
	Seg   int           // EventGotSegment / EventBecameSender / EventDecodeOps: segment ID
	Peer  packet.NodeID // EventParentSet: the parent
	Ops   int           // EventDecodeOps: GF(256) row operations spent decoding
}

// Observer receives per-node observations for metrics collection.
type Observer interface {
	NodeEvent(id packet.NodeID, at time.Duration, ev Event)
	RadioState(id packet.NodeID, at time.Duration, on bool)
	// StorageOp reports an EEPROM access at slot (seg, pkt); reads and
	// writes both carry the slot so invariant checkers can validate the
	// write-once property online.
	StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int)
}

// MultiObserver fans observations out to several observers in order
// (e.g. a metrics collector plus a trace log).
type MultiObserver []Observer

// NodeEvent implements Observer.
func (m MultiObserver) NodeEvent(id packet.NodeID, at time.Duration, ev Event) {
	for _, o := range m {
		o.NodeEvent(id, at, ev)
	}
}

// RadioState implements Observer.
func (m MultiObserver) RadioState(id packet.NodeID, at time.Duration, on bool) {
	for _, o := range m {
		o.RadioState(id, at, on)
	}
}

// StorageOp implements Observer.
func (m MultiObserver) StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int) {
	for _, o := range m {
		o.StorageOp(id, write, seg, pkt, bytes)
	}
}

var _ Observer = MultiObserver(nil)

// NopObserver ignores all observations.
type NopObserver struct{}

// NodeEvent implements Observer.
func (NopObserver) NodeEvent(packet.NodeID, time.Duration, Event) {}

// RadioState implements Observer.
func (NopObserver) RadioState(packet.NodeID, time.Duration, bool) {}

// StorageOp implements Observer.
func (NopObserver) StorageOp(packet.NodeID, bool, int, int, int) {}

var _ Observer = NopObserver{}

// Config sets per-node harness parameters.
type Config struct {
	// TxPower is the initial TinyOS power level.
	TxPower int
	// EEPROMCapacity in bytes; DefaultCapacity if zero.
	EEPROMCapacity int
	// QueueCap bounds the MAC send queue; DefaultQueueCap if zero.
	QueueCap int
	// Battery is the starting battery fraction; 1.0 if zero.
	Battery float64
	// BackoffSlot is the CSMA backoff quantum; DefaultBackoffSlot if
	// zero.
	BackoffSlot time.Duration
}

// MAC timing defaults, approximating TinyOS B-MAC on the CC1000:
// initial backoff uniform over 1..32 slots, congestion backoff uniform
// over 1..16 slots, one slot ≈ 0.4 ms.
const (
	DefaultBackoffSlot  = 400 * time.Microsecond
	initialBackoffSlots = 32
	congestionSlots     = 16
	interFrameGap       = 200 * time.Microsecond
	// DefaultQueueCap bounds the MAC queue; MNP keeps at most a
	// handful of frames in flight.
	DefaultQueueCap = 24
)

// Node binds a protocol to the simulated radio and storage.
type Node struct {
	id       packet.NodeID
	kernel   *sim.Kernel
	medium   *radio.Medium
	proto    Protocol
	store    *eeprom.Store
	observer Observer
	rng      *rand.Rand
	cfg      Config

	// timers and timerFns are indexed by TimerID: protocol timer IDs
	// are small and dense, so a slice beats a map on the per-event hot
	// path, and the per-ID callbacks are built once instead of
	// allocating a closure per SetTimer.
	timers   []sim.Timer
	timerFns []func()
	// attemptFn and afterTxFn are the CSMA callbacks, bound once so the
	// MAC schedules them without allocating.
	attemptFn func()
	afterTxFn func()
	queue     []queuedFrame
	sending   bool
	dead      bool

	completed   bool
	completedAt time.Duration
	battery     float64
	txPower     int
}

// New builds a node. The protocol is not started until Start.
func New(id packet.NodeID, k *sim.Kernel, m *radio.Medium, proto Protocol, cfg Config, obs Observer) (*Node, error) {
	if k == nil || m == nil || proto == nil {
		return nil, fmt.Errorf("node: nil kernel, medium, or protocol")
	}
	if cfg.EEPROMCapacity == 0 {
		cfg.EEPROMCapacity = eeprom.DefaultCapacity
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Battery == 0 {
		cfg.Battery = 1.0
	}
	if cfg.BackoffSlot == 0 {
		cfg.BackoffSlot = DefaultBackoffSlot
	}
	if obs == nil {
		obs = NopObserver{}
	}
	store, err := eeprom.New(cfg.EEPROMCapacity)
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:       id,
		kernel:   k,
		medium:   m,
		proto:    proto,
		store:    store,
		observer: obs,
		rng:      rand.New(rand.NewSource(int64(id)*0x9E3779B9 ^ 0x51F1)),
		cfg:      cfg,
		battery:  cfg.Battery,
		txPower:  cfg.TxPower,
	}
	n.attemptFn = n.attempt
	n.afterTxFn = n.afterTx
	if err := m.Register(id, n.onFrame); err != nil {
		return nil, err
	}
	return n, nil
}

// Start runs the protocol's Init.
func (n *Node) Start() { n.proto.Init(n) }

// Kill destroys the node: radio permanently off, timers cancelled,
// queue dropped. Used for failure injection.
func (n *Node) Kill() {
	n.dead = true
	for _, t := range n.timers {
		t.Cancel()
	}
	n.timers = n.timers[:0]
	n.timerFns = n.timerFns[:0]
	n.queue = nil
	n.sending = false
	n.medium.Destroy(n.id)
	n.observer.RadioState(n.id, n.kernel.Now(), false)
}

// Crash stops the node the way a power failure does: timers, the MAC
// queue, and the protocol's RAM state are lost, but the EEPROM store
// survives and the radio hardware stays registered. Unlike Kill, a
// crashed node can be revived with Restart.
func (n *Node) Crash() {
	if n.dead {
		return
	}
	n.dead = true
	for _, t := range n.timers {
		t.Cancel()
	}
	// timers and timerFns grow in lockstep in SetTimer; truncate both so
	// a restarted node rebuilds them together.
	n.timers = n.timers[:0]
	n.timerFns = n.timerFns[:0]
	n.queue = nil
	n.sending = false
	n.medium.SetRadio(n.id, false)
	n.observer.RadioState(n.id, n.kernel.Now(), false)
}

// Restart revives a crashed node with a fresh protocol instance, as a
// rebooting mote does: EEPROM contents persist, everything in RAM is
// new. The protocol's Init runs immediately.
func (n *Node) Restart(proto Protocol) error {
	if !n.dead {
		return fmt.Errorf("node %v: restart of a live node", n.id)
	}
	if n.medium.Destroyed(n.id) {
		return fmt.Errorf("node %v: destroyed, cannot restart", n.id)
	}
	if proto == nil {
		return fmt.Errorf("node %v: nil protocol", n.id)
	}
	n.dead = false
	n.proto = proto
	n.observer.NodeEvent(n.id, n.kernel.Now(), Event{Kind: EventRebooted})
	proto.Init(n)
	return nil
}

// Dead reports whether the node has been killed.
func (n *Node) Dead() bool { return n.dead }

// Completed reports whether the protocol called Complete.
func (n *Node) Completed() bool { return n.completed }

// CompletedAt returns the completion time ("get code time").
func (n *Node) CompletedAt() time.Duration { return n.completedAt }

// EEPROM exposes the node's flash store for verification.
func (n *Node) EEPROM() *eeprom.Store { return n.store }

// Protocol returns the node's protocol instance.
func (n *Node) Protocol() Protocol { return n.proto }

func (n *Node) onFrame(p packet.Packet, meta radio.RxMeta) {
	if n.dead {
		return
	}
	n.proto.OnPacket(p, meta.From)
}

// --- Runtime implementation ---

// ID implements Runtime.
func (n *Node) ID() packet.NodeID { return n.id }

// Now implements Runtime.
func (n *Node) Now() time.Duration { return n.kernel.Now() }

// Rand implements Runtime.
func (n *Node) Rand() *rand.Rand { return n.rng }

// queuedFrame pairs a packet with the transmit power selected when it
// was queued, so a later SetTxPower does not retroactively change it.
type queuedFrame struct {
	pkt   packet.Packet
	power int
}

// Send's refusals. They are package-level values, not formatted per
// call: protocols send on every hot path and drop refused frames, so an
// allocated error per refusal would be pure garbage.
var (
	ErrDead      = errors.New("node: dead")
	ErrQueueFull = errors.New("node: MAC queue full")
)

// Send implements Runtime: enqueue for CSMA transmission at the
// current transmit power. It returns ErrDead or ErrQueueFull when the
// frame is refused.
func (n *Node) Send(p packet.Packet) error {
	if n.dead {
		return ErrDead
	}
	if len(n.queue) >= n.cfg.QueueCap {
		return ErrQueueFull
	}
	n.queue = append(n.queue, queuedFrame{pkt: p, power: n.txPower})
	if !n.sending {
		n.sending = true
		n.scheduleAttempt(n.initialBackoff())
	}
	return nil
}

// QueueLen reports the number of frames waiting in the MAC queue.
func (n *Node) QueueLen() int { return len(n.queue) }

func (n *Node) initialBackoff() time.Duration {
	return time.Duration(1+n.rng.Intn(initialBackoffSlots)) * n.cfg.BackoffSlot
}

func (n *Node) congestionBackoff() time.Duration {
	return time.Duration(1+n.rng.Intn(congestionSlots)) * n.cfg.BackoffSlot
}

func (n *Node) scheduleAttempt(after time.Duration) {
	n.kernel.MustSchedule(after, n.attemptFn)
}

// attempt is the CSMA step: carrier-sense, then transmit or back off.
func (n *Node) attempt() {
	if n.dead || len(n.queue) == 0 {
		n.sending = false
		return
	}
	if !n.medium.RadioOn(n.id) {
		// Radio is off (the protocol went to sleep with frames
		// queued). Pause; RadioOn resumes the queue.
		n.sending = false
		return
	}
	if n.medium.Busy(n.id) {
		n.scheduleAttempt(n.congestionBackoff())
		return
	}
	q := n.queue[0]
	air, err := n.medium.Transmit(n.id, q.pkt, q.power)
	if err != nil {
		// Transient condition (e.g. raced with our own previous frame);
		// retry after a congestion backoff.
		n.scheduleAttempt(n.congestionBackoff())
		return
	}
	// Shift in place rather than reslicing past the head, so the
	// queue's backing array is reused and later Sends never reallocate.
	last := len(n.queue) - 1
	copy(n.queue, n.queue[1:])
	n.queue[last] = queuedFrame{}
	n.queue = n.queue[:last]
	n.kernel.MustSchedule(air+interFrameGap, n.afterTxFn)
}

// afterTx runs one inter-frame gap after a transmission: move on to the
// next queued frame or go idle.
func (n *Node) afterTx() {
	if len(n.queue) > 0 {
		n.scheduleAttempt(n.initialBackoff())
	} else {
		n.sending = false
	}
}

// SetTimer implements Runtime.
func (n *Node) SetTimer(id TimerID, d time.Duration) {
	if n.dead || id < 0 {
		return
	}
	for int(id) >= len(n.timers) {
		n.timers = append(n.timers, sim.Timer{})
		n.timerFns = append(n.timerFns, nil)
	}
	n.timers[id].Cancel()
	if n.timerFns[id] == nil {
		id := id
		n.timerFns[id] = func() {
			n.timers[id] = sim.Timer{}
			if !n.dead {
				n.proto.OnTimer(id)
			}
		}
	}
	n.timers[id] = n.kernel.MustSchedule(d, n.timerFns[id])
}

// CancelTimer implements Runtime.
func (n *Node) CancelTimer(id TimerID) {
	if id >= 0 && int(id) < len(n.timers) {
		n.timers[id].Cancel()
		n.timers[id] = sim.Timer{}
	}
}

// TimerPending implements Runtime.
func (n *Node) TimerPending(id TimerID) bool {
	return id >= 0 && int(id) < len(n.timers) && n.timers[id].Active()
}

// RadioOn implements Runtime.
func (n *Node) RadioOn() {
	if n.dead || n.medium.RadioOn(n.id) {
		return
	}
	n.medium.SetRadio(n.id, true)
	n.observer.RadioState(n.id, n.kernel.Now(), true)
	if len(n.queue) > 0 && !n.sending {
		n.sending = true
		n.scheduleAttempt(n.initialBackoff())
	}
}

// RadioOff implements Runtime.
func (n *Node) RadioOff() {
	if n.dead || !n.medium.RadioOn(n.id) {
		return
	}
	n.medium.SetRadio(n.id, false)
	n.observer.RadioState(n.id, n.kernel.Now(), false)
}

// IsRadioOn implements Runtime.
func (n *Node) IsRadioOn() bool { return n.medium.RadioOn(n.id) }

// SetTxPower implements Runtime.
func (n *Node) SetTxPower(level int) { n.txPower = level }

// TxPower implements Runtime.
func (n *Node) TxPower() int { return n.txPower }

// Store implements Runtime.
func (n *Node) Store(seg, pkt int, payload []byte) error {
	if err := n.store.Write(seg, pkt, payload); err != nil {
		return err
	}
	n.observer.StorageOp(n.id, true, seg, pkt, len(payload))
	return nil
}

// Load implements Runtime.
func (n *Node) Load(seg, pkt int) []byte {
	p := n.store.Read(seg, pkt)
	if p != nil {
		n.observer.StorageOp(n.id, false, seg, pkt, len(p))
	}
	return p
}

// HasPacket implements Runtime.
func (n *Node) HasPacket(seg, pkt int) bool { return n.store.Has(seg, pkt) }

// EraseStore implements Runtime.
func (n *Node) EraseStore() {
	n.store.Erase()
	n.observer.NodeEvent(n.id, n.kernel.Now(), Event{Kind: EventStoreErased})
}

// Complete implements Runtime.
func (n *Node) Complete() {
	if n.completed {
		return
	}
	n.completed = true
	n.completedAt = n.kernel.Now()
	n.observer.NodeEvent(n.id, n.completedAt, Event{Kind: EventGotCode})
}

// Battery implements Runtime.
func (n *Node) Battery() float64 { return n.battery }

// SetBattery adjusts the remaining battery fraction (experiment setup
// for the §6 battery-aware extension).
func (n *Node) SetBattery(b float64) { n.battery = b }

// Event implements Runtime.
func (n *Node) Event(ev Event) {
	n.observer.NodeEvent(n.id, n.kernel.Now(), ev)
}

var _ Runtime = (*Node)(nil)
