package combin

// Set is an insertion-ordered set of coalitions: open addressing with
// linear probing over Coalition.Hash, each member assigned the dense index
// of its first insertion. One Set does the work of a map[Coalition]struct{}
// dedupe set plus the slice recording first-seen order, and — with a
// parallel []float64 indexed by Add's result — of a map[Coalition]float64,
// at one hash and (typically) one cache line per operation and no
// per-entry allocation. The zero value is an empty set ready to use; a Set
// is not safe for concurrent use.
type Set struct {
	keys []Coalition
	// slots[i] is 0 when empty, else the low half of the member's hash as
	// a tag (high 32 bits) over its index in keys plus one (low 32 bits).
	// The tag lets a probe skip colliding slots without touching keys; the
	// home slot comes from the hash's high half, so the two are independent.
	slots []uint64
}

const setTagMask uint64 = 0xffffffff00000000

// setSlotsFor returns the slot count that holds n members at the maximum
// load factor of 2/3.
func setSlotsFor(n int) int { return n + n/2 + 1 }

// NewSet returns an empty set with room for capacity members before it
// grows.
func NewSet(capacity int) *Set {
	s := &Set{}
	if capacity > 0 {
		s.keys = make([]Coalition, 0, capacity)
		s.slots = make([]uint64, setSlotsFor(capacity))
	}
	return s
}

// home maps a hash onto a slot index (multiply-shift range reduction, so
// the slot count need not be a power of two and a presized set is exact).
func (s *Set) home(h uint64) int {
	return int((h >> 32) * uint64(len(s.slots)) >> 32)
}

// probe walks c's probe sequence (h is its hash). It returns c's dense
// index, or -1 and the empty slot the probe ended on. The table must have
// at least one empty slot.
func (s *Set) probe(c Coalition, h uint64) (index, slot int) {
	tag := h << 32
	for i := s.home(h); ; {
		e := s.slots[i]
		if e == 0 {
			return -1, i
		}
		if e&setTagMask == tag {
			if j := int(uint32(e)) - 1; s.keys[j] == c {
				return j, i
			}
		}
		if i++; i == len(s.slots) {
			i = 0
		}
	}
}

// Add inserts c if absent and returns its dense index — its position in
// first-insertion order — and whether this call inserted it.
func (s *Set) Add(c Coalition) (index int, added bool) {
	if setSlotsFor(len(s.keys)+1) > len(s.slots) {
		s.grow()
	}
	h := c.Hash()
	index, slot := s.probe(c, h)
	if index >= 0 {
		return index, false
	}
	s.keys = append(s.keys, c)
	s.slots[slot] = h<<32 | uint64(len(s.keys))
	return len(s.keys) - 1, true
}

// Find returns the dense index of c, or -1 if c is not a member.
func (s *Set) Find(c Coalition) int {
	if len(s.slots) == 0 {
		return -1
	}
	index, _ := s.probe(c, c.Hash())
	return index
}

// Has reports whether c is a member.
func (s *Set) Has(c Coalition) bool { return s.Find(c) >= 0 }

// Len returns the number of members.
func (s *Set) Len() int { return len(s.keys) }

// Keys returns the members in first-insertion order. The slice aliases the
// set's storage: it is valid until the next Add and must not be modified
// while the set is still in use.
func (s *Set) Keys() []Coalition { return s.keys }

// Reset empties the set, keeping its storage.
func (s *Set) Reset() {
	s.keys = s.keys[:0]
	clear(s.slots)
}

// grow doubles the table and reinserts every member; dense indices are
// positions in keys and do not change.
func (s *Set) grow() {
	s.slots = make([]uint64, setSlotsFor(max(8, 2*len(s.keys))))
	for j, c := range s.keys {
		h := c.Hash()
		_, slot := s.probe(c, h)
		s.slots[slot] = h<<32 | uint64(j+1)
	}
}
