package rat

import (
	"cmp"
	"fmt"
	"math/big"
	"runtime"
	"slices"
)

// TreeSum returns the exact sum Σ mul·num/den over the leaves i in
// [0, n) that leaf accepts (ok = true), normalized. Every den must be
// positive; mul scales the leaf, and its product with num is formed in
// big.Int when it overflows int64.
//
// A sequential big.Rat fold re-normalizes a growing fraction on every
// add, so over n pairwise coprime denominators it costs O(n) GCDs of
// up-to-n-word operands. TreeSum instead reduces each leaf by its int64
// GCDs with den, adds leaves of equal denominator directly, and folds
// the remaining (numerator, denominator) pairs as a balanced tree of
// unnormalized big.Int products — operands of equal size, which
// math/big multiplies by Karatsuba — then normalizes once at the root.
//
// The leaf buffer and the fold's big.Int stack come from a free list,
// so a call allocates only the returned value and the final
// normalization. leaf is called once per index, in order, and is not
// retained.
func TreeSum(n int, leaf func(i int) (num, den, mul int64, ok bool)) *big.Rat {
	b := getTreeBuf()
	defer putTreeBuf(b)
	b.leaves = b.leaves[:0]
	for i := 0; i < n; i++ {
		num, den, mul, ok := leaf(i)
		if !ok || num == 0 || mul == 0 {
			continue
		}
		if den <= 0 {
			panic(fmt.Errorf("rat: TreeSum leaf %d has denominator %d", i, den))
		}
		g := int64(gcd64(absU(num), uint64(den)))
		num, den = num/g, den/g
		g = int64(gcd64(absU(mul), uint64(den)))
		mul, den = mul/g, den/g
		b.leaves = append(b.leaves, treeLeaf{num: num, den: den, mul: mul})
	}
	slices.SortFunc(b.leaves, func(x, y treeLeaf) int { return cmp.Compare(x.den, y.den) })
	top := 0
	for i := 0; i < len(b.leaves); {
		var ok bool
		if i, ok = b.coalesce(i, top); !ok {
			continue
		}
		b.size[top] = 1
		top++
		for top >= 2 && b.size[top-2] == b.size[top-1] {
			b.merge(top-2, top-1)
			b.size[top-2] *= 2
			top--
		}
	}
	if top == 0 {
		return new(big.Rat)
	}
	for ; top >= 2; top-- {
		b.merge(top-2, top-1)
	}
	return new(big.Rat).SetFrac(&b.num[0], &b.den[0])
}

// treeLeaf is one TreeSum term mul·num/den, with den > 0.
type treeLeaf struct{ num, den, mul int64 }

// treeBuf is TreeSum's reusable working memory: the leaf buffer and the
// fold's stack. Stack entry j holds the unnormalized sum of a block of
// size[j] consecutive denominators. Pushing a denominator merges the
// two top blocks for as long as they have equal size — a binary
// counter — so the fold is a balanced tree, yet only one block per
// level is alive at a time: sizes are distinct powers of two, so 64
// entries suffice. Entries and temporaries are reused in place, so the
// fold of a warm buffer allocates nothing, and no multiplication
// aliases its operands (which would make math/big allocate a fresh
// result).
type treeBuf struct {
	leaves   []treeLeaf
	num, den [64]big.Int
	size     [64]int
	t, u, v  big.Int
}

// treeBufs is the free list of idle treeBufs. It holds one per
// GOMAXPROCS: folds are CPU-bound, so that many can run at once. It is
// a free list rather than a sync.Pool because garbage collection empties
// a pool, and a refilled buffer regrows its stack entries one
// allocation at a time.
var treeBufs = make(chan *treeBuf, runtime.GOMAXPROCS(0))

func getTreeBuf() *treeBuf {
	select {
	case b := <-treeBufs:
		return b
	default:
		return new(treeBuf)
	}
}

func putTreeBuf(b *treeBuf) {
	select {
	case treeBufs <- b:
	default: // enough idle buffers already
	}
}

// coalesce sums the den-sorted leaves from i that share leaves[i]'s
// denominator into stack entry j as Σ mul·num over that denominator,
// carried in int64 until a product or partial sum overflows. It returns
// the index past the run, and ok = false when the run sums to zero.
func (b *treeBuf) coalesce(i, j int) (next int, ok bool) {
	d := b.leaves[i].den
	sum := b.num[j].SetInt64(0)
	var acc int64
	for ; i < len(b.leaves) && b.leaves[i].den == d; i++ {
		l := b.leaves[i]
		p, ok := tryMul64(l.num, l.mul)
		if !ok {
			sum.Add(sum, b.t.Mul(b.u.SetInt64(l.num), b.v.SetInt64(l.mul)))
			continue
		}
		if s, ok := tryAdd64(acc, p); ok {
			acc = s
			continue
		}
		sum.Add(sum, b.t.SetInt64(acc))
		acc = p
	}
	sum.Add(sum, b.t.SetInt64(acc))
	b.den[j].SetInt64(d)
	return i, sum.Sign() != 0
}

// merge adds stack entry y into entry x, unnormalized, by
// cross-multiplying. Equal denominators were added in coalesce; two
// blocks of sorted distinct denominators share a product only by
// coincidence.
func (b *treeBuf) merge(x, y int) {
	a, p, c, q := &b.num[x], &b.den[x], &b.num[y], &b.den[y]
	b.t.Mul(a, q)
	b.u.Mul(c, p)
	a.Add(&b.t, &b.u)
	b.t.Mul(p, q)
	p.Set(&b.t)
}
