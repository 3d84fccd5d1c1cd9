package pack

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestSetMatchesMap drives a Set through several doublings alongside a
// map[uint64]bool: every Add must report freshness exactly as the map
// does, and Len must track the map's size.
func TestSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, ref := NewSet(), map[uint64]bool{}
	add := func(k uint64) {
		t.Helper()
		fresh := !ref[k]
		ref[k] = true
		if got := s.Add(k); got != fresh {
			t.Fatalf("Add(%#x) = %v, want %v", k, got, fresh)
		}
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d after Add(%#x), want %d", s.Len(), k, len(ref))
		}
	}
	for _, k := range []uint64{0, 1 << 32, 1 << 63} {
		add(k)
	}
	// Small keys collide often and repeat, large ones spread: both shapes
	// go through 64 → 32768 slots.
	for i := 0; i < 20000; i++ {
		if i%2 == 0 {
			add(uint64(rng.Intn(5000)))
		} else {
			add(rng.Uint64() >> 1)
		}
	}
	if len(s.slots) < 1<<14 {
		t.Fatalf("only %d slots after %d keys: the set did not grow", len(s.slots), len(ref))
	}
	for k := range ref {
		if s.Add(k) {
			t.Fatalf("key %#x lost after growth", k)
		}
	}
	for _, k := range []uint64{0, 1 << 32, 1 << 63} {
		if s.Add(k) {
			t.Fatalf("edge key %#x lost after growth", k)
		}
	}
}

// TestSetHintHoldsWithoutGrowing checks that NewSetHint(n) takes n
// distinct keys without reallocating its slot array.
func TestSetHintHoldsWithoutGrowing(t *testing.T) {
	for _, n := range []int{0, 1, 47, 48, 49, 1000, 1 << 16} {
		s := NewSetHint(n)
		slots := &s.slots[0]
		for k := 0; k < n; k++ {
			if !s.Add(uint64(k) << 32) {
				t.Fatalf("hint %d: key %d reported present", n, k)
			}
		}
		if &s.slots[0] != slots {
			t.Fatalf("hint %d: the slot array grew", n)
		}
		if s.Len() != n {
			t.Fatalf("hint %d: Len = %d", n, s.Len())
		}
	}
}

// FuzzSet reads the input as a little-endian sequence of 64-bit keys
// (the reserved ^uint64(0) is skipped) and requires Add to report the
// same freshness as a map at every step.
func FuzzSet(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ref := NewSet(), map[uint64]bool{}
		for ; len(data) >= 8; data = data[8:] {
			k := binary.LittleEndian.Uint64(data)
			if k == ^uint64(0) {
				continue
			}
			if got, want := s.Add(k), !ref[k]; got != want {
				t.Fatalf("Add(%#x) = %v, want %v", k, got, want)
			}
			ref[k] = true
		}
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
		}
	})
}

// BenchmarkPackSet times one Add of a present key (hit) and of an
// absent key (miss, amortizing growth) on a set of product-pair-shaped
// keys tm<<32 | spec.
func BenchmarkPackSet(b *testing.B) {
	const n = 1 << 16
	key := func(i int) uint64 { return uint64(i/256)<<32 | uint64(i%256) }
	b.Run("hit", func(b *testing.B) {
		s := NewSetHint(n)
		for i := 0; i < n; i++ {
			s.Add(key(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Add(key(i % n)) {
				b.Fatal("hit reported fresh")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := NewSet()
		for i := 0; i < b.N; i++ {
			if !s.Add(key(i)) {
				b.Fatal("miss reported present")
			}
		}
	})
}
