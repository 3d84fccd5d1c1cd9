package spec

import (
	"fmt"
	"testing"

	"tmcheck/internal/core"
	"tmcheck/internal/pack"
)

// TestDStateKeyExact checks that the packed DState key is exact on
// every reachable state of Σdss and Σdop: each key decodes back to the
// state it was built from. A key with a left inverse is injective, so
// distinct states get distinct keys. The enumeration is a plain BFS
// that stores only keys (Σdss at (3,2) has 3.75M states).
func TestDStateKeyExact(t *testing.T) {
	dims := [][2]int{{2, 2}, {2, 3}, {3, 2}}
	if testing.Short() {
		dims = dims[:1]
	}
	for _, prop := range []Property{StrictSerializability, Opacity} {
		for _, dim := range dims {
			d := NewDet(prop, dim[0], dim[1])
			t.Run(fmt.Sprintf("%s-n%dk%d", prop.Key(), d.Threads, d.Vars), func(t *testing.T) {
				ab := core.Alphabet{Threads: d.Threads, Vars: d.Vars}
				kw := pack.WordsFor(d.keyBits())
				keys := pack.NewMap(kw, 0)
				key := make([]uint64, kw)
				add := func(q DState) {
					d.encodeKey(&q, key)
					if got := d.decodeKey(key); got != q {
						t.Fatalf("round trip: %+v decodes to %+v", q, got)
					}
					keys.Intern(key)
				}
				add(d.Initial())
				for i := int32(0); int(i) < keys.Len(); i++ {
					q := d.decodeKey(keys.KeyAt(i))
					for l := 0; l < ab.Size(); l++ {
						if q2, ok := d.Step(q, ab.Decode(l)); ok {
							add(q2)
						}
					}
				}
				t.Logf("%d reachable states", keys.Len())
			})
		}
	}
}

// TestDStateKeyWidthBound checks that the widest supported instance
// (4 threads, 16 variables) fits the packed key path: 4·(3+64+8) = 300
// bits.
func TestDStateKeyWidthBound(t *testing.T) {
	d := NewDet(Opacity, 4, 16)
	if got := d.keyBits(); got != 300 {
		t.Errorf("(4,16) key is %d bits, want 300", got)
	}
	if w := pack.WordsFor(d.keyBits()); w > pack.MaxWords {
		t.Errorf("(4,16) key needs %d words, pack.MaxWords is %d", w, pack.MaxWords)
	}
}

// fuzzDState builds a DState from 52 bytes, masked to (n, k) and to the
// 3-bit status field.
func fuzzDState(b []byte, n, k int) DState {
	var q DState
	u16 := func(i int) uint16 { return uint16(b[i]) | uint16(b[i+1])<<8 }
	vm, tmask := uint16(1)<<k-1, uint16(1)<<n-1
	for t := 0; t < n; t++ {
		o := 13 * t
		q.Status[t] = b[o] & 7
		q.RS[t] = core.VarSet(u16(o+1) & vm)
		q.WS[t] = core.VarSet(u16(o+3) & vm)
		q.PRS[t] = core.VarSet(u16(o+5) & vm)
		q.PWS[t] = core.VarSet(u16(o+7) & vm)
		q.WP[t] = core.ThreadSet(u16(o+9) & tmask)
		q.SP[t] = core.ThreadSet(u16(o+11) & tmask)
	}
	return q
}

// FuzzDStateKey checks the key is exact on arbitrary states: two
// DStates masked to (n, k) get equal keys iff they are equal, and each
// key decodes back to its state.
func FuzzDStateKey(f *testing.F) {
	f.Add(uint8(1), uint8(1), make([]byte, 52), make([]byte, 52))
	f.Add(uint8(3), uint8(15), make([]byte, 52), append([]byte{4}, make([]byte, 51)...))
	f.Fuzz(func(t *testing.T, nb, kb uint8, a, b []byte) {
		if len(a) < 52 || len(b) < 52 {
			return
		}
		d := NewDet(StrictSerializability, int(nb)%4+1, int(kb)%16+1)
		qa, qb := fuzzDState(a, d.Threads, d.Vars), fuzzDState(b, d.Threads, d.Vars)
		kw := pack.WordsFor(d.keyBits())
		ka, kb2 := make([]uint64, kw), make([]uint64, kw)
		d.encodeKey(&qa, ka)
		d.encodeKey(&qb, kb2)
		if d.decodeKey(ka) != qa || d.decodeKey(kb2) != qb {
			t.Fatalf("round trip failed at (%d,%d)", d.Threads, d.Vars)
		}
		sameKey := true
		for i := range ka {
			sameKey = sameKey && ka[i] == kb2[i]
		}
		if sameKey != (qa == qb) {
			t.Fatalf("(%d,%d): keys equal=%v, states equal=%v\n a=%+v\n b=%+v", d.Threads, d.Vars, sameKey, qa == qb, qa, qb)
		}
	})
}
