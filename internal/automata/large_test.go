package automata_test

import (
	"reflect"
	"testing"

	"tmcheck/internal/automata"
	"tmcheck/internal/explore"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Shape of the synthetic large product: an NFA chain of largeChain
// states against a counter DFA of largeCounter states, which is
// 4100 × 65537 > 2²⁸ product pairs — above the dense walk's bitset
// limit — of which only ~90k are reachable.
const (
	largeChain   = 4100
	largeCounter = 1 << 16
)

// largeProduct builds the synthetic product. Chain state i reads letter
// 0 to i+1, reads letter 1 to i+1 when i%3 == 0, and every 97th state
// also has an ε-edge to i+2, so the BFS meets each chain state at
// several counter values and through words of both letters. The DFA
// counts letters modulo largeCounter; with failAt ≥ 0 its state failAt
// has no letter-1 edge, which makes inclusion fail.
func largeProduct(failAt int) (*automata.NFA, *automata.DFA) {
	a := automata.NewNFA(2)
	for i := 1; i < largeChain; i++ {
		a.AddState()
	}
	for i := 0; i+1 < largeChain; i++ {
		a.AddEdge(i, 0, i+1)
		if i%3 == 0 {
			a.AddEdge(i, 1, i+1)
		}
		if i%97 == 0 && i+2 < largeChain {
			a.AddEps(i, i+2)
		}
	}
	d := automata.NewDFA(2)
	for c := 1; c < largeCounter; c++ {
		d.AddState()
	}
	for c := 0; c < largeCounter; c++ {
		d.SetEdge(c, 0, (c+1)%largeCounter)
		if c != failAt {
			d.SetEdge(c, 1, (c+1)%largeCounter)
		}
	}
	return a, d
}

// TestDenseInclusionLargeProduct runs the dense walk on a product above
// the bitset limit, where it keeps its visited pairs in a pack.Set, and
// compares verdict, counterexample and pair count with the boxed
// IncludedInDFA, whose visited table is a map of its own.
func TestDenseInclusionLargeProduct(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failAt int
	}{{"holds", -1}, {"fails", 3000}} {
		t.Run(tc.name, func(t *testing.T) {
			a, d := largeProduct(tc.failAt)
			if total := uint64(a.NumStates()) * uint64(d.NumStates()+1); total <= automata.DenseBitsLimit {
				t.Fatalf("product of %d pairs is within the bitset limit", total)
			}
			okB, cexB, stB := automata.IncludedInDFAStats(a, d)
			okD, cexD, stD, err := automata.IncludedInDFADenseGuarded(automata.DenseFromNFA(a), d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if okD != okB || stD.PairsVisited != stB.PairsVisited {
				t.Fatalf("dense: ok=%v, %d pairs; boxed: ok=%v, %d pairs", okD, stD.PairsVisited, okB, stB.PairsVisited)
			}
			if !reflect.DeepEqual(cexD, cexB) {
				t.Fatalf("dense counterexample (%d letters) differs from the boxed one (%d letters)", len(cexD), len(cexB))
			}
			if okD != (tc.failAt < 0) {
				t.Fatalf("verdict %v, want %v", okD, tc.failAt < 0)
			}
			if !okD && (d.Accepts(cexD) || !a.Accepts(cexD)) {
				t.Fatalf("counterexample %v is not in L(a) \\ L(d)", cexD)
			}
			t.Logf("%d pairs, counterexample of %d letters", stD.PairsVisited, len(cexD))
		})
	}
}

// BenchmarkDenseInclusion times the dense inclusion walk on each side
// of the bitset limit: the tl2 (2,2) πop product (bitset) and the
// synthetic product of TestDenseInclusionLargeProduct (pack.Set).
func BenchmarkDenseInclusion(b *testing.B) {
	b.Run("bitset", func(b *testing.B) {
		nfa := explore.Build(tm.NewTL2(2, 2), nil).DenseNFA()
		dfa := spec.NewDet(spec.Opacity, 2, 2).Enumerate()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, _ := automata.IncludedInDFADense(nfa, dfa); !ok {
				b.Fatal("tl2 (2,2) is opaque")
			}
		}
	})
	b.Run("large", func(b *testing.B) {
		a, dfa := largeProduct(-1)
		nfa := automata.DenseFromNFA(a)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, _ := automata.IncludedInDFADense(nfa, dfa); !ok {
				b.Fatal("synthetic product holds")
			}
		}
	})
}
