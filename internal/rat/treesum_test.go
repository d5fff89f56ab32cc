package rat

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// testLeaf is one TreeSum leaf as the tests feed it.
type testLeaf struct {
	num, den, mul int64
	ok            bool
}

func leafOf(num, den int64) testLeaf { return testLeaf{num, den, 1, true} }

// treeSumOf runs TreeSum over leaves.
func treeSumOf(leaves []testLeaf) *big.Rat {
	return TreeSum(len(leaves), func(i int) (num, den, mul int64, ok bool) {
		l := leaves[i]
		return l.num, l.den, l.mul, l.ok
	})
}

// sequentialSum is the test oracle: the plain left-to-right big.Rat fold
// TreeSum replaced, normalizing after every add.
func sequentialSum(leaves []testLeaf) *big.Rat {
	var sum, term, m big.Rat
	for _, l := range leaves {
		if !l.ok {
			continue
		}
		term.SetFrac64(l.num, l.den)
		sum.Add(&sum, term.Mul(&term, m.SetInt64(l.mul)))
	}
	return &sum
}

func checkTreeSum(t *testing.T, name string, leaves []testLeaf) {
	t.Helper()
	got, want := treeSumOf(leaves), sequentialSum(leaves)
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: TreeSum = %v, sequential fold = %v", name, got, want)
	}
	// Normalized like big.Rat's own results: a positive denominator
	// coprime to the numerator.
	if g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(got.Num()), got.Denom()); got.Num().Sign() != 0 && g.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("%s: TreeSum result %v is not normalized (gcd %v)", name, got, g)
	}
}

// primes returns the first n primes at or above lo.
func primes(lo int64, n int) []int64 {
	var out []int64
	for p := lo; len(out) < n; p++ {
		prime := p > 1
		for d := int64(2); d*d <= p; d++ {
			if p%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			out = append(out, p)
		}
	}
	return out
}

func TestTreeSumMatchesSequential(t *testing.T) {
	const near62 = int64(1) << 62
	var harmonic, harmonicPow2, coprime, overflowMul, odd101 []testLeaf
	for i := 0; i < 64; i++ {
		harmonic = append(harmonic, leafOf(int64(i%7+1), 1000))
		harmonicPow2 = append(harmonicPow2, leafOf(int64(i+1), 1000<<(i%7)))
	}
	for i, p := range primes(1000, 300) {
		coprime = append(coprime, leafOf(int64(i%50+1), p))
	}
	for i := 0; i < 9; i++ {
		// C·(T−D) far beyond int64: the product must be formed in big.Int.
		overflowMul = append(overflowMul, testLeaf{int64(1)<<40 + int64(i), int64(1009 + 2*i), int64(1)<<41 - int64(i), true})
	}
	for i := 0; i < 101; i++ {
		odd101 = append(odd101, leafOf(int64(i-50), int64(i%13+1)))
	}
	cases := []struct {
		name   string
		leaves []testLeaf
	}{
		{"empty", nil},
		{"all rejected", []testLeaf{{1, 2, 1, false}, {3, 5, 1, false}}},
		{"single leaf", []testLeaf{leafOf(3, 7)}},
		{"single leaf with multiplier", []testLeaf{{3, 7, 14, true}}},
		{"single zero leaf", []testLeaf{leafOf(0, 7)}},
		{"zero multiplier", []testLeaf{{5, 7, 0, true}, leafOf(1, 3)}},
		{"equal denominators", harmonic},
		{"harmonic powers of two", harmonicPow2},
		{"distinct primes", coprime},
		{"three leaves", []testLeaf{leafOf(1, 2), leafOf(1, 3), leafOf(1, 5)}},
		{"five leaves", []testLeaf{leafOf(1, 2), leafOf(1, 3), leafOf(1, 5), leafOf(1, 7), leafOf(1, 11)}},
		{"101 leaves", odd101},
		{"cancelling leaves", []testLeaf{leafOf(1, 3), leafOf(-1, 3), leafOf(2, 9), leafOf(-2, 9)}},
		{"cancelling across denominators", []testLeaf{leafOf(1, 2), leafOf(-2, 4), leafOf(1, 7)}},
		{"unreduced leaves", []testLeaf{leafOf(6, 4), leafOf(10, 15), {4, 6, 3, true}}},
		{"multiplier overflows int64", overflowMul},
		{"negative multipliers", []testLeaf{{near62, 3, -near62, true}, {5, 7, -1, true}}},
		{"numerators near +2^62", []testLeaf{leafOf(near62-1, 3), leafOf(near62-3, 5), leafOf(near62-5, 3), leafOf(near62, 7)}},
		{"numerators near -2^62", []testLeaf{leafOf(-near62+1, 3), leafOf(-near62, 3), leafOf(-near62+7, 3)}},
		{"denominators near 2^62", []testLeaf{leafOf(near62-1, near62), leafOf(near62-3, near62-1), leafOf(-1, near62+1)}},
		{"int64 extremes", []testLeaf{leafOf(math.MaxInt64, 1), leafOf(math.MaxInt64, 1), leafOf(math.MinInt64, math.MaxInt64), {math.MinInt64, 3, math.MinInt64, true}}},
	}
	for _, c := range cases {
		checkTreeSum(t, c.name, c.leaves)
	}
}

// TestTreeSumRandom compares the tree with the sequential fold over
// random leaf sequences of every length up to 70 and a mix of
// magnitudes, so the fold's stack takes every shape up to that size and
// both the int64 and big.Int coalescing paths are crossed.
func TestTreeSumRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		leaves := make([]testLeaf, trial%71)
		for i := range leaves {
			leaves[i] = randomLeaf(rnd)
		}
		checkTreeSum(t, "random", leaves)
	}
}

func randomLeaf(rnd *rand.Rand) testLeaf {
	pick := func(small int64) int64 {
		switch rnd.Intn(4) {
		case 0:
			return rnd.Int63n(small) + 1
		case 1:
			return rnd.Int63()
		case 2:
			return int64(1)<<62 - rnd.Int63n(16)
		default:
			return rnd.Int63n(1<<31) + 1
		}
	}
	l := testLeaf{num: pick(100), den: pick(12), mul: 1, ok: rnd.Intn(8) != 0}
	if rnd.Intn(2) == 0 {
		l.num = -l.num
	}
	if rnd.Intn(3) == 0 {
		l.mul = pick(50)
		if rnd.Intn(2) == 0 {
			l.mul = -l.mul
		}
	}
	return l
}

// TestTreeSumConcurrent runs folds from several goroutines at once, so
// the shared free list hands buffers back and forth under the race
// detector; each result must still equal its own sequential fold.
func TestTreeSumConcurrent(t *testing.T) {
	const workers = 8
	inputs := make([][]testLeaf, workers)
	for w := range inputs {
		rnd := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < 20+40*w; i++ {
			inputs[w] = append(inputs[w], randomLeaf(rnd))
		}
	}
	var wg sync.WaitGroup
	for w := range inputs {
		want := sequentialSum(inputs[w])
		wg.Add(1)
		go func(leaves []testLeaf) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				if got := treeSumOf(leaves); got.Cmp(want) != 0 {
					t.Errorf("TreeSum = %v, sequential fold = %v", got, want)
					return
				}
			}
		}(inputs[w])
	}
	wg.Wait()
}

// FuzzTreeSum decodes the input as a sequence of 25-byte leaves (a flag
// byte, then num, den and mul as little-endian int64s) and compares the
// tree with the sequential fold. The flag's low bit rejects the leaf; its
// next bits shrink num, den and mul to small values, so fuzzed inputs
// also reach shared and equal denominators, not only 64-bit magnitudes.
func FuzzTreeSum(f *testing.F) {
	enc := func(leaves ...testLeaf) []byte {
		var out []byte
		for _, l := range leaves {
			flag := byte(0)
			if !l.ok {
				flag = 1
			}
			out = append(out, flag)
			out = binary.LittleEndian.AppendUint64(out, uint64(l.num))
			out = binary.LittleEndian.AppendUint64(out, uint64(l.den))
			out = binary.LittleEndian.AppendUint64(out, uint64(l.mul))
		}
		return out
	}
	f.Add([]byte{})
	f.Add(enc(leafOf(1, 3)))
	f.Add(enc(leafOf(1, 1000), leafOf(3, 1000), leafOf(7, 1000)))
	f.Add(enc(leafOf(1, 1009), leafOf(2, 1013), leafOf(3, 1019), leafOf(-4, 1021), leafOf(5, 1031)))
	f.Add(enc(testLeaf{1 << 40, 1009, 1 << 41, true}, testLeaf{-(1 << 62), 3, 1 << 62, true}, testLeaf{5, 7, 1, false}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var leaves []testLeaf
		for ; len(data) >= 25; data = data[25:] {
			flag := data[0]
			l := testLeaf{
				num: int64(binary.LittleEndian.Uint64(data[1:])),
				den: int64(binary.LittleEndian.Uint64(data[9:])),
				mul: int64(binary.LittleEndian.Uint64(data[17:])),
				ok:  flag&1 == 0,
			}
			if flag&2 != 0 {
				l.num %= 1000
			}
			if flag&4 != 0 {
				l.den %= 64
			}
			if flag&8 != 0 {
				l.mul %= 100
			}
			if l.den < 0 {
				l.den = -(l.den + 1)
			}
			if l.den == 0 {
				l.den = 1
			}
			leaves = append(leaves, l)
		}
		checkTreeSum(t, "fuzz", leaves)
	})
}
