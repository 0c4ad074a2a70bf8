// Package eeprom models the mote's external flash, where incoming code
// packets are buffered before reboot. Mica-2/XSM motes carry 512 KB.
//
// The store tracks write counts per packet slot so tests can assert the
// paper's invariant: "we guarantee that each packet in a segment is
// written to EEPROM only once."
package eeprom

import (
	"fmt"
)

// DefaultCapacity is the Mica-2/XSM external flash size in bytes.
const DefaultCapacity = 512 * 1024

// slot is one (segment, packet) cell. present distinguishes an empty
// payload from an unwritten slot.
type slot struct {
	data    []byte
	writes  int
	present bool
}

// Store is a per-node packet store keyed by (segment, packet). It is
// not safe for concurrent use; in the DES a node owns its store, and in
// the live runtime each node goroutine owns its own.
//
// Slots live in dense per-segment rows rather than a map: segment and
// packet IDs are small (MNP caps a segment at 128 packets), and the
// store sits on the simulator's per-delivery hot path, where hashing a
// key per write was measurable across millions of events.
type Store struct {
	capacity int
	used     int
	reads    int
	count    int
	segs     [][]slot // indexed by segment ID, rows grown on demand

	// writeFault, when set, is consulted before each write; a non-nil
	// error fails the write with no state change (the flash driver
	// detected a bad page program). Fault injection installs it.
	writeFault func(seg, pkt int) error
	faults     int
}

// New returns a store with the given capacity in bytes.
func New(capacity int) (*Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("eeprom: capacity %d must be positive", capacity)
	}
	return &Store{capacity: capacity}, nil
}

// at returns the slot for (seg, pkt), or nil if it was never written.
func (s *Store) at(seg, pkt int) *slot {
	if seg < 0 || seg >= len(s.segs) || pkt < 0 || pkt >= len(s.segs[seg]) {
		return nil
	}
	sl := &s.segs[seg][pkt]
	if !sl.present {
		return nil
	}
	return sl
}

// Write stores the payload for packet pkt of segment seg (copying it).
// Rewriting an occupied slot is permitted — the protocol is supposed to
// avoid it, and WriteCount exposes violations.
func (s *Store) Write(seg, pkt int, payload []byte) error {
	if seg < 1 || pkt < 0 {
		return fmt.Errorf("eeprom: invalid slot (%d,%d)", seg, pkt)
	}
	if s.writeFault != nil {
		if err := s.writeFault(seg, pkt); err != nil {
			s.faults++
			return err
		}
	}
	for seg >= len(s.segs) {
		s.segs = append(s.segs, nil)
	}
	row := s.segs[seg]
	for pkt >= len(row) {
		row = append(row, slot{})
	}
	s.segs[seg] = row
	sl := &row[pkt]
	prev := len(sl.data)
	if s.used-prev+len(payload) > s.capacity {
		return fmt.Errorf("eeprom: capacity exceeded (%d + %d > %d)", s.used-prev, len(payload), s.capacity)
	}
	s.used += len(payload) - prev
	sl.data = append(sl.data[:0], payload...)
	sl.writes++
	if !sl.present {
		sl.present = true
		s.count++
	}
	return nil
}

// Read returns a copy of the payload stored for (seg, pkt), or nil if
// the slot is empty.
func (s *Store) Read(seg, pkt int) []byte {
	sl := s.at(seg, pkt)
	if sl == nil {
		return nil
	}
	s.reads++
	return append([]byte(nil), sl.data...)
}

// Has reports whether the slot holds data, without counting as a read.
func (s *Store) Has(seg, pkt int) bool {
	return s.at(seg, pkt) != nil
}

// WriteCount returns the number of times (seg, pkt) has been written.
func (s *Store) WriteCount(seg, pkt int) int {
	sl := s.at(seg, pkt)
	if sl == nil {
		return 0
	}
	return sl.writes
}

// MaxWriteCount returns the largest write count over all slots; 1 means
// the write-once invariant held.
func (s *Store) MaxWriteCount() int {
	maxC := 0
	for _, row := range s.segs {
		for i := range row {
			if row[i].present && row[i].writes > maxC {
				maxC = row[i].writes
			}
		}
	}
	return maxC
}

// SetWriteFault installs (or, with nil, removes) a write-fault
// injector. A successful retry after a failed write still counts as
// the slot's first write.
func (s *Store) SetWriteFault(f func(seg, pkt int) error) { s.writeFault = f }

// FaultCount returns how many writes the injected fault rejected.
func (s *Store) FaultCount() int { return s.faults }

// Used returns the number of bytes stored.
func (s *Store) Used() int { return s.used }

// Slots returns the number of occupied slots.
func (s *Store) Slots() int { return s.count }

// Erase drops all contents and counters, as the fail state does when a
// node "releases EEPROM resource".
func (s *Store) Erase() {
	s.segs = nil
	s.used = 0
	s.count = 0
}

// EraseSegment drops the contents of one segment only.
func (s *Store) EraseSegment(seg int) {
	if seg < 0 || seg >= len(s.segs) {
		return
	}
	row := s.segs[seg]
	for i := range row {
		if row[i].present {
			s.used -= len(row[i].data)
			s.count--
		}
	}
	s.segs[seg] = nil
}
