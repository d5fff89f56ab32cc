//go:build !race

package rat

// Built out of race-instrumented runs: -race adds bookkeeping
// allocations that testing.AllocsPerRun would count.

import "testing"

// TestTreeSumAllocs pins TreeSum's buffer reuse. Its leaf buffer and
// big.Int slots come from a free list, so a warm call allocates only the
// result and math/big's temporaries for the final normalization: a
// handful, the same at n = 11 and n = 1000, and at FMS scale fewer than
// the sequential fold it replaced, which allocated on nearly every add.
func TestTreeSumAllocs(t *testing.T) {
	const maxAllocs = 24
	for _, n := range []int{11, 1000} {
		var leaves []testLeaf
		for i, p := range primes(1000, n) {
			leaves = append(leaves, leafOf(int64(i%50+1), p))
		}
		treeSumOf(leaves) // warm the free list
		tree := testing.AllocsPerRun(20, func() { treeSumOf(leaves) })
		if tree > maxAllocs {
			t.Errorf("n=%d: TreeSum allocates %v per call, want at most %d; are the leaf and slot buffers reused?", n, tree, maxAllocs)
		}
		if n == 11 {
			if seq := testing.AllocsPerRun(20, func() { sequentialSum(leaves) }); tree >= seq {
				t.Errorf("n=%d: TreeSum allocates %v per call, the sequential fold %v", n, tree, seq)
			}
		}
	}
}
