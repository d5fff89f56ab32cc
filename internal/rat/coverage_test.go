package rat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Fills the corners the main suites do not reach: infinity arithmetic,
// comparison helpers, and the directed big.Rat conversion.

func TestLessHelpers(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less broken")
	}
	if !a.LessEq(b) || !a.LessEq(a) || b.LessEq(a) {
		t.Error("LessEq broken")
	}
}

func TestAddInfBranches(t *testing.T) {
	if got := FromInt64(5).Add(PosInf); !got.Eq(PosInf) {
		t.Errorf("5 + Inf = %v", got)
	}
	if got := NegInf.Add(FromInt64(5)); !got.Eq(NegInf) {
		t.Errorf("-Inf + 5 = %v", got)
	}
	if got := PosInf.Add(PosInf); !got.Eq(PosInf) {
		t.Errorf("Inf + Inf = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Inf + -Inf did not panic")
		}
	}()
	PosInf.Add(NegInf)
}

func TestMulInfBranches(t *testing.T) {
	if got := PosInf.Mul(FromInt64(-3)); !got.Eq(NegInf) {
		t.Errorf("Inf · -3 = %v", got)
	}
	if got := NegInf.Mul(NegInf); !got.Eq(PosInf) {
		t.Errorf("-Inf · -Inf = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("0 · Inf did not panic")
		}
	}()
	Zero.Mul(PosInf)
}

func TestNegOfInf(t *testing.T) {
	if got := PosInf.Neg(); !got.Eq(NegInf) {
		t.Errorf("-(+Inf) = %v", got)
	}
	if got := NegInf.Inv(); !got.Eq(Zero) {
		t.Errorf("1/-Inf = %v", got)
	}
}

func TestMinWithInf(t *testing.T) {
	if got := Min(PosInf, One); !got.Eq(One) {
		t.Errorf("Min(Inf, 1) = %v", got)
	}
	if got := Min(NegInf, One); !got.Eq(NegInf) {
		t.Errorf("Min(-Inf, 1) = %v", got)
	}
}

func TestBigRoundTrip(t *testing.T) {
	for _, r := range []Rat{New(4, 3), Zero, New(-7, 5), FromInt64(9)} {
		if got := FromBig(r.Big(), true); !got.Eq(r) {
			t.Errorf("Big round trip %v → %v", r, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Big of Inf did not panic")
		}
	}()
	PosInf.Big()
}

func TestFromBigDirectedRounding(t *testing.T) {
	// A value with a denominator far beyond the 2^20 cap: 1/(2^30+1).
	v := new(big.Rat).SetFrac64(1, (1<<30)+1)
	up := FromBig(v, true)
	down := FromBig(v, false)
	exact, _ := new(big.Float).SetRat(v).Float64()
	if up.Float64() < exact {
		t.Errorf("up-rounded %v below exact %v", up, exact)
	}
	if down.Float64() > exact {
		t.Errorf("down-rounded %v above exact %v", down, exact)
	}
	if up.Cmp(down) < 0 {
		t.Error("up bound below down bound")
	}
	if up.Den() > 1<<20 || down.Den() > 1<<20 {
		t.Errorf("denominators not capped: %v, %v", up, down)
	}
	// Negative values mirror the behavior.
	neg := new(big.Rat).Neg(v)
	nUp := FromBig(neg, true)
	nDown := FromBig(neg, false)
	if nUp.Cmp(nDown) < 0 {
		t.Error("negative bounds inverted")
	}
	// Huge magnitudes are rejected loudly rather than silently wrong.
	defer func() {
		if recover() == nil {
			t.Error("oversized FromBig did not panic")
		}
	}()
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))
	FromBig(huge, true)
}

// TestFromBigMatchesNormalizedProduct pins FromBig's integer quotient to
// the definition it replaced: v·2^20 normalized as a big.Rat, truncated
// toward zero, then moved one step in the rounding direction when
// inexact. The values are random sums with huge coprime denominators,
// of both signs, plus exact multiples of 2^-20.
func TestFromBigMatchesNormalizedProduct(t *testing.T) {
	reference := func(v *big.Rat, up bool) Rat {
		if v.Num().IsInt64() && v.Denom().IsInt64() && v.Denom().Int64() <= roundDenom {
			return New(v.Num().Int64(), v.Denom().Int64())
		}
		scaled := new(big.Rat).Mul(v, big.NewRat(roundDenom, 1))
		num := new(big.Int).Quo(scaled.Num(), scaled.Denom())
		if new(big.Int).Mul(num, scaled.Denom()).Cmp(scaled.Num()) != 0 {
			if up && v.Sign() > 0 {
				num.Add(num, big.NewInt(1))
			}
			if !up && v.Sign() < 0 {
				num.Sub(num, big.NewInt(1))
			}
		}
		return New(num.Int64(), roundDenom)
	}
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		v := new(big.Rat)
		for i := 0; i < 1+trial%40; i++ {
			v.Add(v, big.NewRat(rnd.Int63n(2000)-1000, 1000+rnd.Int63n(100000)))
		}
		if trial%7 == 0 {
			v.SetFrac64(rnd.Int63n(1<<30)-1<<29, roundDenom)
		}
		for _, up := range []bool{true, false} {
			if got, want := FromBig(v, up), reference(v, up); !got.Eq(want) {
				t.Fatalf("FromBig(%v, %v) = %v, reference %v", v, up, got, want)
			}
		}
	}
}

func TestCheckedNegOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negating MinInt64 did not panic")
		}
	}()
	Rat{math.MinInt64, 1}.Neg()
}

func TestMulCheckedBoundary(t *testing.T) {
	// Exactly MinInt64 is representable as a product.
	got := FromInt64(math.MinInt64 / 2).Mul(FromInt64(2))
	if got.Num() != math.MinInt64 {
		t.Errorf("MinInt64 product = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("overflowing product did not panic")
		}
	}()
	FromInt64(math.MaxInt64).Mul(FromInt64(2))
}
