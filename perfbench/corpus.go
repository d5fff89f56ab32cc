package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"mcspeedup/internal/core"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Periods selects the period structure of a generated set. The exact
// utilization sums cost what the common denominator of C/T costs, so
// the three structures span the cheap and expensive ends of the same
// analysis at one n.
type Periods int

const (
	// Harmonic periods are base·2^k: every partial sum keeps a small
	// power-of-two denominator.
	Harmonic Periods = iota
	// LogUniform periods are drawn log-uniformly, as the paper's
	// generator does: denominators share some factors.
	LogUniform
	// Coprime periods are distinct primes, so the exact sum's
	// denominator is the product of all n periods.
	Coprime
)

var periodNames = [...]string{"harmonic", "loguniform", "coprime"}

func (p Periods) String() string { return periodNames[p] }

// Period range of every generated set, in ticks. It is wide enough that
// n = 1000 tasks at total utilization ≈ 0.9 still get C(LO) ≥ 1 with
// small rounding error, and holds several thousand primes.
const (
	periodMin = 1000
	periodMax = 100000
)

// Spec names one corpus cell: task count, period structure and the
// target LO-mode utilization Σ C(LO)/T.
type Spec struct {
	N       int
	Periods Periods
	U       float64
	// Copies is how many sets NewCorpus draws for the cell (0 means 1).
	Copies int
}

func (s Spec) String() string { return fmt.Sprintf("%s-n%d", s.Periods, s.N) }

// speedCap is the HI-mode speed every analysis and search runs at: the
// paper's s = 2.
var speedCap = rat.Two

// tuneStep is the TuneDeadlines move granularity (its default, 1/16).
var tuneStep = rat.New(1, 16)

// maxDraws bounds the rejection sampling of one set; the specs used by
// the workloads accept within a few draws.
const maxDraws = 64

// GenerateSet draws a set for spec from rnd and rejection-samples until
// MinimalX finds an x keeping LO mode schedulable; it returns the
// MinimalX-transformed set.
func GenerateSet(rnd *rand.Rand, spec Spec) (task.Set, error) {
	for draw := 0; draw < maxDraws; draw++ {
		raw := drawSet(rnd, spec)
		_, s, err := core.MinimalX(raw)
		if err != nil {
			continue
		}
		return s, nil
	}
	return nil, fmt.Errorf("corpus: no acceptable %v set in %d draws", spec, maxDraws)
}

// searchesFail reports whether any design search the design-loop
// workload runs returns no answer on s. The x window is searched with
// the LO tasks terminated: undegraded LO tasks alone need a speedup of
// about one per LO task, far above the cap.
func searchesFail(s task.Set) bool {
	if _, _, err := core.MinimalY(s, speedCap); err != nil {
		return true
	}
	if _, _, err := core.FeasibleXWindow(s.TerminateLO(), speedCap); err != nil {
		return true
	}
	_, err := core.TuneDeadlines(s, tuneStep)
	return err != nil
}

// drawSet builds one implicit-deadline set: half the tasks HI with
// γ = C(HI)/C(LO) ∈ [1, 2], per-task utilizations from UUniFast summing
// to spec.U. LO tasks are not degraded: their carry-over jobs put the
// Theorem-2 witness at a small Δ, so the walks stay short at every n and
// the cost is the exact sums. Degraded sets whose s_min is approached
// only as Δ → ∞ walk up to 10^5 events, and how many depends on the
// seed.
func drawSet(rnd *rand.Rand, spec Spec) task.Set {
	periods := drawPeriods(rnd, spec.N, spec.Periods)
	utils := uunifast(rnd, spec.N, spec.U)
	s := make(task.Set, spec.N)
	for i := range s {
		t := periods[i]
		cLO := task.Time(math.Round(utils[i] * float64(t)))
		if cLO < 1 {
			cLO = 1
		}
		name := "t" + strconv.Itoa(i)
		if i%2 == 0 {
			s[i] = task.NewImplicitLO(name, t, cLO)
			continue
		}
		cHI := task.Time(math.Round(float64(cLO) * (1 + rnd.Float64())))
		if cHI > t {
			cHI = t
		}
		s[i] = task.NewImplicitHI(name, t, cLO, cHI)
	}
	return s
}

// uunifast splits total utilization u over n tasks uniformly at random
// (Bini and Buttazzo's UUniFast).
func uunifast(rnd *rand.Rand, n int, u float64) []float64 {
	out := make([]float64, n)
	sum := u
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rnd.Float64(), 1/float64(n-1-i))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
	return out
}

func drawPeriods(rnd *rand.Rand, n int, p Periods) []task.Time {
	out := make([]task.Time, n)
	switch p {
	case Harmonic:
		for i := range out {
			out[i] = periodMin << rnd.Intn(7) // 1000 … 64000
		}
	case LogUniform:
		lo, hi := math.Log(periodMin), math.Log(periodMax)
		for i := range out {
			out[i] = task.Time(math.Round(math.Exp(lo + rnd.Float64()*(hi-lo))))
		}
	case Coprime:
		pool := primesIn(periodMin, periodMax)
		for i, j := range rnd.Perm(len(pool))[:n] {
			out[i] = pool[j]
		}
	}
	return out
}

var primePool []task.Time

// primesIn returns the primes in [lo, hi], sieved once.
func primesIn(lo, hi int) []task.Time {
	if primePool != nil {
		return primePool
	}
	composite := make([]bool, hi+1)
	for i := 2; i*i <= hi; i++ {
		if !composite[i] {
			for j := i * i; j <= hi; j += i {
				composite[j] = true
			}
		}
	}
	for i := lo; i <= hi; i++ {
		if !composite[i] {
			primePool = append(primePool, task.Time(i))
		}
	}
	return primePool
}

// Corpus is a list of generated sets with the spec each was drawn for.
type Corpus struct {
	Specs []Spec
	Sets  []task.Set
}

// NewCorpus draws spec.Copies sets for every spec. Each (spec, copy)
// pair gets its own substream of seed, so a cell's sets do not depend on
// which other cells the corpus holds.
func NewCorpus(seed int64, specs []Spec) (*Corpus, error) {
	c := &Corpus{}
	for ci, spec := range specs {
		for k := 0; k < max(1, spec.Copies); k++ {
			s, err := GenerateSet(gen.SubRand(seed, ci, k), spec)
			if err != nil {
				return nil, err
			}
			c.Specs = append(c.Specs, spec)
			c.Sets = append(c.Sets, s)
		}
	}
	return c, nil
}

// Digest is the SHA-256 over the fingerprints of the corpus sets in
// order: equal digests mean equal corpora.
func (c *Corpus) Digest() string {
	h := sha256.New()
	for _, s := range c.Sets {
		h.Write([]byte(s.Fingerprint()))
	}
	return hex.EncodeToString(h.Sum(nil))
}
