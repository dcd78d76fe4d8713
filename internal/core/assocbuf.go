package core

// assocBuf is a small fully-associative line buffer with true LRU
// replacement — the hardware structure underlying both miss caches and
// victim caches ("a small fully-associative cache containing on the order
// of two to five cache lines of data"). Unlike cache.Cache it permits any
// entry count (the paper sweeps 1–15 entries) and exposes removal, which
// the victim-cache swap needs.
type assocBuf struct {
	entries []bufEntry
	tick    uint64
}

type bufEntry struct {
	lineAddr uint64
	used     uint64
	valid    bool
	dirty    bool
}

// newAssocBuf returns a buffer with n entries. n must be non-negative; a
// zero-entry buffer is legal and never hits.
func newAssocBuf(n int) assocBuf {
	return assocBuf{entries: make([]bufEntry, n)}
}

// len returns the configured entry count.
func (b *assocBuf) len() int { return len(b.entries) }

// probe looks up lineAddr and refreshes its recency on a hit. It reports
// whether the line was present and whether it was dirty.
func (b *assocBuf) probe(lineAddr uint64) (hit, dirty bool) {
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.lineAddr == lineAddr {
			b.tick++
			e.used = b.tick
			return true, e.dirty
		}
	}
	return false, false
}

// contains reports presence without updating recency.
func (b *assocBuf) contains(lineAddr uint64) bool {
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].lineAddr == lineAddr {
			return true
		}
	}
	return false
}

// insert installs lineAddr as the most recently used entry, evicting the
// LRU entry if the buffer is full. It returns the evicted line, if any.
// Inserting a line that is already present refreshes it (and ORs dirty).
func (b *assocBuf) insert(lineAddr uint64, dirty bool) (victim bufEntry, evicted bool) {
	if len(b.entries) == 0 {
		return bufEntry{}, false
	}
	b.tick++
	slot := -1
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.lineAddr == lineAddr {
			e.used = b.tick
			e.dirty = e.dirty || dirty
			return bufEntry{}, false
		}
		if !e.valid && slot == -1 {
			slot = i
		}
	}
	if slot == -1 {
		slot = 0
		for i := 1; i < len(b.entries); i++ {
			if b.entries[i].used < b.entries[slot].used {
				slot = i
			}
		}
		victim, evicted = b.entries[slot], true
	}
	b.entries[slot] = bufEntry{lineAddr: lineAddr, used: b.tick, valid: true, dirty: dirty}
	return victim, evicted
}

// remove deletes lineAddr if present, returning whether it was present and
// whether it was dirty.
func (b *assocBuf) remove(lineAddr uint64) (present, dirty bool) {
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.lineAddr == lineAddr {
			present, dirty = true, e.dirty
			*e = bufEntry{}
			return present, dirty
		}
	}
	return false, false
}

// valid returns the number of valid entries.
func (b *assocBuf) validCount() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].valid {
			n++
		}
	}
	return n
}

// residents returns the line addresses of the valid entries.
func (b *assocBuf) residents() []uint64 {
	out := make([]uint64, 0, len(b.entries))
	for i := range b.entries {
		if b.entries[i].valid {
			out = append(out, b.entries[i].lineAddr)
		}
	}
	return out
}
