package sim

import (
	"fmt"
	"testing"
	"time"
)

// The kernel keeps only live events in its heap: Timer.Cancel sifts
// the event out by its stored index and recycles the slot at once.
// These tests drive random schedule / cancel / step / RunBefore /
// AdvanceTo sequences against a reference model that simply sorts the
// live events by (at, seq), and check after every operation that the
// two agree on what runs, in what order, at what time — and that the
// heap itself is well formed.

type kopKind uint8

const (
	kSchedule    kopKind = iota // schedule after arg µs
	kCancel                     // cancel handle arg (mod handles issued; may be stale)
	kCancelHeap                 // cancel the event at heap position arg (>= Pending: the last)
	kSelfCancel                 // schedule after arg µs a timer that cancels itself as it fires
	kCancelOther                // schedule after arg µs a timer that cancels handle arg (mod issued) as it fires
	kStep                       // Step
	kRunBefore                  // RunBefore(now + arg µs)
	kAdvance                    // AdvanceTo(min(now + arg µs, next event))
	numKops
)

type kop struct {
	kind kopKind
	arg  int
}

func (o kop) String() string {
	return fmt.Sprintf("%d(%d)", o.kind, o.arg)
}

// refEvent is the reference model's view of one live event.
type refEvent struct {
	at     time.Duration
	seq    uint64
	cancel int // handle the callback cancels; -1 for none
}

// opsHarness runs one op sequence on a real kernel and on the
// reference model side by side.
type opsHarness struct {
	t       *testing.T
	k       *Kernel
	handles []Timer          // every handle issued, by id
	live    map[int]refEvent // reference: id -> pending event
	seq     uint64           // reference: next sequence number
	fired   []int            // kernel: ids in firing order
	nowRef  time.Duration    // reference clock
	trace   []kop            // ops applied so far, for failure messages
}

func newOpsHarness(t *testing.T) *opsHarness {
	return &opsHarness{t: t, k: New(1), live: map[int]refEvent{}}
}

func (h *opsHarness) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("after ops %v: %s", h.trace, fmt.Sprintf(format, args...))
}

// schedule issues a timer on the kernel and the reference. cancel is
// the handle its callback cancels (-1 for none); self makes it cancel
// itself.
func (h *opsHarness) schedule(delay time.Duration, cancel int, self bool) {
	id := len(h.handles)
	if self {
		cancel = id
	}
	tm := h.k.MustSchedule(delay, func() {
		h.fired = append(h.fired, id)
		if self && h.handles[id].Active() {
			h.fail("timer %d still active inside its own callback", id)
		}
		if cancel >= 0 {
			h.handles[cancel].Cancel()
		}
	})
	h.handles = append(h.handles, tm)
	h.live[id] = refEvent{at: h.nowRef + delay, seq: h.seq, cancel: cancel}
	h.seq++
}

// refNext returns the id of the reference's earliest live event.
func (h *opsHarness) refNext() (int, bool) {
	best, ok := -1, false
	for id, e := range h.live {
		if !ok || e.at < h.live[best].at || (e.at == h.live[best].at && e.seq < h.live[best].seq) {
			best, ok = id, true
		}
	}
	return best, ok
}

// refFire pops the reference's earliest event and applies its callback.
func (h *opsHarness) refFire() (int, bool) {
	id, ok := h.refNext()
	if !ok {
		return 0, false
	}
	e := h.live[id]
	delete(h.live, id)
	h.nowRef = e.at
	if e.cancel >= 0 {
		delete(h.live, e.cancel)
	}
	return id, true
}

// expectFired checks the kernel fired exactly want since mark.
func (h *opsHarness) expectFired(mark int, want []int) {
	h.t.Helper()
	got := h.fired[mark:]
	if len(got) != len(want) {
		h.fail("fired %v, reference %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			h.fail("fired %v, reference %v", got, want)
		}
	}
}

func (h *opsHarness) apply(o kop) {
	h.t.Helper()
	h.trace = append(h.trace, o)
	us := time.Duration(o.arg) * time.Microsecond
	switch o.kind {
	case kSchedule:
		h.schedule(us, -1, false)
	case kSelfCancel:
		h.schedule(us, -1, true)
	case kCancelOther:
		target := -1
		if len(h.handles) > 0 {
			target = o.arg % len(h.handles)
		}
		h.schedule(us, target, false)
	case kCancel:
		if len(h.handles) == 0 {
			return
		}
		id := o.arg % len(h.handles)
		h.handles[id].Cancel()
		delete(h.live, id)
	case kCancelHeap:
		n := len(h.k.queue)
		if n == 0 {
			return
		}
		pos := o.arg
		if pos >= n {
			pos = n - 1
		}
		ev := h.k.queue[pos]
		for id, tm := range h.handles {
			if tm.ev == ev && tm.gen == ev.gen {
				tm.Cancel()
				delete(h.live, id)
				return
			}
		}
		h.fail("heap position %d holds an event no live handle names", pos)
	case kStep:
		mark := len(h.fired)
		id, ok := h.refFire()
		if got := h.k.Step(); got != ok {
			h.fail("Step = %v, reference has an event: %v", got, ok)
		}
		if ok {
			h.expectFired(mark, []int{id})
		}
	case kRunBefore:
		limit := h.nowRef + us
		mark := len(h.fired)
		var want []int
		for {
			id, ok := h.refNext()
			if !ok || h.live[id].at >= limit {
				break
			}
			h.refFire()
			want = append(want, id)
		}
		if n := h.k.RunBefore(limit); n != len(want) {
			h.fail("RunBefore(%v) ran %d, reference %d", limit, n, len(want))
		}
		h.expectFired(mark, want)
	case kAdvance:
		to := h.nowRef + us
		if id, ok := h.refNext(); ok && h.live[id].at < to {
			to = h.live[id].at
		}
		h.k.AdvanceTo(to)
		if to > h.nowRef {
			h.nowRef = to
		}
	}
	h.check()
}

// check compares every observable against the reference and validates
// the heap: each entry's stored index matches its position and no
// entry precedes its parent.
func (h *opsHarness) check() {
	h.t.Helper()
	if h.k.Now() != h.nowRef {
		h.fail("Now = %v, reference %v", h.k.Now(), h.nowRef)
	}
	if h.k.Pending() != len(h.live) {
		h.fail("Pending = %d, reference live count %d", h.k.Pending(), len(h.live))
	}
	for id, tm := range h.handles {
		_, live := h.live[id]
		if tm.Active() != live {
			h.fail("handle %d Active = %v, reference %v", id, tm.Active(), live)
		}
	}
	next, ok := h.k.NextEventAt()
	rid, rok := h.refNext()
	if ok != rok || (ok && next != h.live[rid].at) {
		h.fail("NextEventAt = %v,%v; reference %v,%v", next, ok, h.live[rid].at, rok)
	}
	for i, ev := range h.k.queue {
		if ev.idx != i {
			h.fail("heap entry %d stores index %d", i, ev.idx)
		}
		if i > 0 && ev.before(h.k.queue[(i-1)>>2]) {
			h.fail("heap entry %d precedes its parent", i)
		}
	}
}

// drain runs the kernel dry and checks the remaining order.
func (h *opsHarness) drain() {
	h.t.Helper()
	for len(h.live) > 0 {
		h.apply(kop{kind: kStep})
	}
	h.apply(kop{kind: kStep}) // empty queue: Step reports false
}

func runKernelOps(t *testing.T, ops []kop) {
	t.Helper()
	h := newOpsHarness(t)
	for _, o := range ops {
		h.apply(o)
	}
	h.drain()
}

func sched(us ...int) []kop {
	ops := make([]kop, len(us))
	for i, d := range us {
		ops[i] = kop{kind: kSchedule, arg: d}
	}
	return ops
}

func TestKernelOpsMatchReference(t *testing.T) {
	// Enough events for a three-level 4-ary heap, with repeated times
	// so FIFO tie-breaking is exercised.
	many := sched(50, 20, 70, 20, 90, 10, 60, 30, 80, 40, 20, 55, 65, 15, 75, 25, 85, 35, 45, 5, 95)
	cases := []struct {
		name string
		ops  []kop
	}{
		{"cancel root", append(many, kop{kCancelHeap, 0}, kop{kCancelHeap, 0})},
		{"cancel middle", append(many, kop{kCancelHeap, 7}, kop{kCancelHeap, 3}, kop{kCancelHeap, 11})},
		// Cancelling handle 6 leaves a hole whose filler, the last leaf,
		// precedes the hole's parent: removal must sift up, not down.
		{"cancel middle, last leaf sifts up", append(sched(48, 122, 48, 48, 48, 98, 98, 5, 98, 98),
			kop{kStep, 0}, kop{kSchedule, 48}, kop{kSchedule, 48}, kop{kSchedule, 48}, kop{kCancel, 6})},
		{"cancel last", append(many, kop{kCancelHeap, 1 << 20}, kop{kCancelHeap, 1 << 20})},
		{"cancel every entry from the root", append(many,
			kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0},
			kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0},
			kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0},
			kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0},
			kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0}, kop{kCancelHeap, 0},
			kop{kCancelHeap, 0})},
		{"cancel inside own callback", []kop{{kSelfCancel, 10}, {kSchedule, 10}, {kSelfCancel, 5}, {kStep, 0}}},
		{"callback cancels a later event", []kop{{kSchedule, 30}, {kSchedule, 40}, {kCancelOther, 10}, {kStep, 0}}},
		{"callback cancels a fired event", []kop{{kSchedule, 5}, {kCancelOther, 10}, {kStep, 0}, {kStep, 0}}},
		{"cancel is idempotent", []kop{{kSchedule, 5}, {kSchedule, 6}, {kCancel, 0}, {kCancel, 0}, {kCancel, 0}}},
		{"stale handle after slot reuse", []kop{
			{kSchedule, 5},   // handle 0
			{kStep, 0},       // handle 0 fires; its slot is recycled
			{kSchedule, 5},   // handle 1 reuses the slot
			{kCancel, 0},     // stale: must not cancel handle 1
			{kSchedule, 1},   // handle 2
			{kCancel, 2},     // cancelled: slot recycled at once
			{kSchedule, 3},   // handle 3 reuses handle 2's slot
			{kCancel, 2},     // stale again
			{kCancelHeap, 0}, // cancels handle 3 through the heap
		}},
		{"run before and advance", append(many,
			kop{kCancelHeap, 4}, kop{kRunBefore, 30}, kop{kAdvance, 12}, kop{kCancelHeap, 1 << 20},
			kop{kRunBefore, 0}, kop{kAdvance, 200}, kop{kSchedule, 0}, kop{kRunBefore, 1})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runKernelOps(t, tc.ops)
		})
	}
}

// A stale handle must not touch the event now occupying its recycled
// slot — checked directly on the slot, not only through the reference.
func TestCancelledSlotRecycledAtOnce(t *testing.T) {
	k := New(1)
	a := k.MustSchedule(time.Millisecond, func() {})
	b := k.MustSchedule(2*time.Millisecond, func() {})
	a.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after cancelling one of two, want 1", k.Pending())
	}
	c := k.MustSchedule(3*time.Millisecond, func() {})
	if c.ev != a.ev {
		t.Fatal("cancelled slot was not reused by the next schedule")
	}
	a.Cancel()
	if !c.Active() || !b.Active() || k.Pending() != 2 {
		t.Fatalf("stale Cancel disturbed live events: b %v c %v pending %d", b.Active(), c.Active(), k.Pending())
	}
}

// decodeKops turns fuzz bytes into ops, two bytes per op.
func decodeKops(data []byte) []kop {
	if len(data) > 1024 {
		data = data[:1024]
	}
	ops := make([]kop, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ops = append(ops, kop{kind: kopKind(data[i]) % numKops, arg: int(data[i+1])})
	}
	return ops
}

func FuzzKernelOps(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 0, 1, 2, 0, 5, 0})
	f.Add([]byte{0, 9, 0, 3, 0, 7, 0, 1, 0, 4, 0, 4, 2, 255, 2, 2, 1, 0, 6, 5, 7, 50, 5, 0})
	f.Add([]byte{3, 10, 0, 10, 4, 20, 4, 1, 5, 0, 5, 0, 1, 0, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		runKernelOps(t, decodeKops(data))
	})
}
