// Package examplesets provides the running example task set of the paper
// (Table I) in both its variants, and the deterministic large sets the
// benchmarks share.
//
// The scanned copy of the paper renders Table I's numeric cells
// illegibly, so the parameters below are a reconstruction, found by
// exhaustive search over small integer parameters, that reproduces every
// number the text reports about the example exactly:
//
//   - Example 1: s_min = 4/3 without service degradation, and with the
//     degraded parameters D₂(HI) = 15, T₂(HI) = 20 the required speedup
//     drops below 1 (here 6/7 ≈ 0.857), so "the system can actually slow
//     down in HI mode".
//   - Example 2: the service resetting time is Δ_R = 6 at s = 2
//     (and 9 at the minimum speedup s = 4/3).
package examplesets

import (
	"fmt"
	"math"

	"mcspeedup/internal/task"
)

// TableI returns the two-task running example without service
// degradation: the LO task keeps its original parameters in HI mode.
//
//	τ₁ HI: C(LO)=2 C(HI)=4 D(LO)=6 D(HI)=9  T(LO)=T(HI)=10
//	τ₂ LO: C=2            D(LO)=D(HI)=10    T(LO)=T(HI)=10
func TableI() task.Set {
	return task.Set{
		task.NewHI("tau1", 10, 6, 9, 2, 4),
		task.NewLO("tau2", 10, 10, 2),
	}
}

// TableIDegraded returns the Example-1 variant in which τ₂'s HI-mode
// service is degraded to D₂(HI) = 15, T₂(HI) = 20.
func TableIDegraded() task.Set {
	s := TableI()
	s[1].Deadline[task.HI] = 15
	s[1].Period[task.HI] = 20
	return s
}

// Coprime returns the deterministic n-task set the benchmarks measure
// exact-sum scaling on: implicit-deadline tasks whose periods are n
// distinct primes spread evenly over the primes in [1000, 100000], so
// every exact utilization sum has a denominator of about 17·n bits.
// Each task takes an equal share of LO-mode utilization 0.9, C(LO) =
// round(0.9·T/n) but at least 1; odd-indexed tasks are HI with
// C(HI) = ⌈3/2·C(LO)⌉ and even-indexed ones LO, kept in HI mode. It
// panics for n outside [1, 9424], the number of such primes.
func Coprime(n int) task.Set {
	const lo, hi = 1000, 100000
	composite := make([]bool, hi+1)
	var primes []task.Time
	for i := 2; i <= hi; i++ {
		if composite[i] {
			continue
		}
		if i >= lo {
			primes = append(primes, task.Time(i))
		}
		for j := i * i; j <= hi; j += i {
			composite[j] = true
		}
	}
	if n < 1 || n > len(primes) {
		panic(fmt.Sprintf("examplesets: Coprime(%d): n must be in [1, %d]", n, len(primes)))
	}
	s := make(task.Set, n)
	for i := range s {
		t := primes[i*len(primes)/n]
		c := max(1, task.Time(math.Round(0.9*float64(t)/float64(n))))
		name := fmt.Sprintf("p%04d", i)
		if i%2 == 1 {
			s[i] = task.NewImplicitHI(name, t, c, (3*c+1)/2)
		} else {
			s[i] = task.NewImplicitLO(name, t, c)
		}
	}
	return s
}
