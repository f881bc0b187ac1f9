package db

import "sync/atomic"

// Bounding the on-demand store with a second-chance clock: learned
// classes live in slots carrying a reference bit, the bit is set by
// read-locked hits, and when the store is full the clock hand sweeps the
// ring of keys, granting one second chance (clearing the bit) before
// evicting the first un-referenced victim. An evicted class is simply re-learned on next contact — the
// negative cache and the canonization memo are tiny per class (a map
// key) and are deliberately not bounded here, so a budget-blown class
// is still never re-proven hopeless.
//
// A bounded store trades the "learn everything once" determinism for
// bounded memory: which classes survive depends on lookup interleaving,
// so — like Timeout and the circuit breaker — the limit is opt-in and
// meant for long-running servers (migserve -synth-limit).

// odSlot is one learned class in the store: the entry plus the clock
// reference bit. The bit is written on the read-locked hit path, so it
// is atomic; the rest of the slot is immutable after publication.
type odSlot struct {
	e   *Entry
	ref atomic.Bool
}

// refTouch marks the slot recently used. Called with s.mu read-locked.
func (sl *odSlot) refTouch() { sl.ref.Store(true) }

// Limit returns the store's current capacity bound (0 = unbounded).
func (s *OnDemand) Limit() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.limit
}

// SetLimit bounds the learned classes kept in memory to n (0 removes
// the bound). A shrinking limit evicts immediately. Safe to call at any
// time, including while lookups are in flight.
func (s *OnDemand) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = n
	for s.limit > 0 && len(s.entries) > s.limit {
		s.evictOneLocked()
	}
}

// Evictions returns how many learned classes the clock has evicted.
func (s *OnDemand) Evictions() uint64 { return s.evictions.Load() }

// insertLocked publishes a learned entry under the store's write lock,
// evicting a victim first when the store is at its bound. Duplicate
// keys overwrite in place (their ring slot survives).
func (s *OnDemand) insertLocked(key uint32, e *Entry) {
	if sl, dup := s.entries[key]; dup {
		sl.e = e
		sl.ref.Store(false)
		return
	}
	if s.limit > 0 && len(s.entries) >= s.limit {
		// Reuse the victim's ring slot for the newcomer: the hand has
		// already advanced past the survivors it pardoned.
		s.evictReuseLocked(key)
	} else {
		s.ring = append(s.ring, key)
	}
	s.entries[key] = &odSlot{e: e}
}

// evictReuseLocked runs one clock sweep and installs newKey in the
// victim's ring slot.
func (s *OnDemand) evictReuseLocked(newKey uint32) {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		k := s.ring[s.hand]
		if sl := s.entries[k]; sl != nil && sl.ref.Swap(false) {
			s.hand++ // second chance
			continue
		}
		delete(s.entries, k)
		s.evictions.Add(1)
		s.ring[s.hand] = newKey
		s.hand++
		return
	}
}

// evictOneLocked runs one clock sweep and shrinks the ring (SetLimit's
// immediate-shrink path).
func (s *OnDemand) evictOneLocked() {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		k := s.ring[s.hand]
		if sl := s.entries[k]; sl != nil && sl.ref.Swap(false) {
			s.hand++
			continue
		}
		delete(s.entries, k)
		s.evictions.Add(1)
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring = s.ring[:last]
		return
	}
}
