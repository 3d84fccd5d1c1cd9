package pack

// Set is an open-addressing set of one-word keys, the visited set of
// both product searches (the on-the-fly safety BFS and the dense
// inclusion walk above its bitset limit). A slot holds the key + 1
// inline (0 is empty), so a probe touches one slot array and nothing
// else; the table doubles at 3/4 load. Hashing is Fibonacci hashing on
// the top bits of the product with the golden-ratio constant.
//
// The key ^uint64(0) is reserved: its slot value would wrap to the
// empty marker. Product pairs packed as hi<<32 | lo with both halves
// below 2³¹ never reach it.
//
// The zero Set is not ready; use NewSet or NewSetHint. Set is not safe
// for concurrent use.
type Set struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
}

// NewSet returns an empty set with 64 slots.
func NewSet() *Set { return &Set{slots: make([]uint64, 64), shift: 64 - 6} }

// NewSetHint returns an empty set that holds n keys without growing.
func NewSetHint(n int) *Set {
	size, log := 64, uint(6)
	for 3*size < 4*n {
		size, log = size<<1, log+1
	}
	return &Set{slots: make([]uint64, size), shift: 64 - log}
}

// Len returns the number of keys in the set.
func (s *Set) Len() int { return s.n }

// Add inserts k, reporting whether it was absent.
func (s *Set) Add(k uint64) bool {
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		s.slots, s.n, s.shift = make([]uint64, 2*len(old)), 0, s.shift-1
		for _, v := range old {
			if v != 0 {
				s.Add(v - 1)
			}
		}
	}
	v, mask := k+1, uint64(len(s.slots)-1)
	for i := (v * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = v
			s.n++
			return true
		case v:
			return false
		}
	}
}
