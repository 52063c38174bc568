package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Generator parameters. The library has the shape of the paper's Figure 7
// cells: a fixed action space with Zipf-popular actions, two
// implementations per goal and a mean implementation length of 8, so
// connectivity (implementations per action) is about 200 at 250k.
const (
	libImplementations = 250_000
	libActions         = 10_000
	libMeanImplLen     = 8
	libZipfExponent    = 0.6
	activityMinLen     = 3
	activityMaxLen     = 5
	recommendK         = 10
	// librarySeed fixes the library across runs; --seed draws the request
	// streams, sessions and ingests. Comparing runs on one library keeps
	// library-to-library variation out of the run-to-run spread.
	librarySeed = 2018
)

// strategies are the four goal-based strategies, in the order every
// round of a workload sends them.
var strategies = []string{"focus-cmp", "focus-cl", "breadth", "best-match"}

// rng is a SplitMix64 generator: small, fast and fully determined by its
// seed, so the same --seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// poisson draws from a Poisson distribution by Knuth's product method,
// adequate for the small means used here.
func (r *rng) poisson(mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.float64()
		if p <= l {
			return k
		}
		k++
	}
}

// zipf samples ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^s by inverting a
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int { return z.rank(r.float64()) }

// rank maps u in [0, 1) to the rank whose CDF interval holds it.
func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// actionName names the action of popularity rank i. Names are not in rank
// order of first appearance, so the server's interned ids differ from the
// ranks and the reference must derive ids the documented way.
func actionName(i int) string { return fmt.Sprintf("act%05d", i) }

// impl is one goal implementation as the benchmark generated it.
type impl struct {
	Goal    string   `json:"goal"`
	Actions []string `json:"actions"`
}

// genImpl draws one implementation of goal: 2 + Poisson(mean-2) actions,
// Zipf-popular, duplicates allowed (the library merges them).
func genImpl(r *rng, z *zipf, goal string) impl {
	n := 2 + r.poisson(libMeanImplLen-2)
	acts := make([]string, n)
	for i := range acts {
		acts[i] = actionName(z.sample(r))
	}
	return impl{Goal: goal, Actions: acts}
}

// genLibrary generates the workload library for seed.
func genLibrary(seed uint64, z *zipf) []impl {
	r := newRNG(seed, 1)
	lib := make([]impl, libImplementations)
	for i := range lib {
		lib[i] = genImpl(r, z, fmt.Sprintf("goal%06d", i/2))
	}
	return lib
}

// writeLibrary writes impls as the JSON-lines library goalrecd loads.
func writeLibrary(path string, impls []impl) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range impls {
		if err := enc.Encode(&impls[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// activityStream draws the stateless request stream's activities. The
// action ranks come from a Weyl sequence, u_j = frac(offset + j·alpha) per
// action slot, with seed-drawn offsets and irrational alphas, mapped
// through the Zipf CDF; lengths cycle 3, 4, 5. Every seed gets different
// activities, but each run's mix of popular and rare actions matches the
// Zipf distribution closely rather than by chance, so a run's figures
// measure the server, not how heavy its seed's activities happened to be.
type activityStream struct {
	r   *rng
	z   *zipf
	off [activityMaxLen]float64
	j   int
}

// weylAlpha are the fractional parts of √2, √3, √5, √7 and √11.
var weylAlpha = [activityMaxLen]float64{
	0.41421356237309515, 0.7320508075688772, 0.2360679774997898,
	0.6457513110645907, 0.3166247903554,
}

func newActivityStream(r *rng, z *zipf) *activityStream {
	s := &activityStream{r: r, z: z}
	for d := range s.off {
		s.off[d] = r.float64()
	}
	return s
}

// nextActions draws n distinct actions from the stream's first slots, for
// appends to a stored history.
func (s *activityStream) nextActions(n int) []string {
	out := make([]string, 0, n)
	for d := 0; d < n; d++ {
		u := s.off[d] + float64(s.j)*weylAlpha[d]
		a := actionName(s.z.rank(u - math.Floor(u)))
		for d > 0 && a == out[0] {
			a = actionName(s.z.sample(s.r))
		}
		out = append(out, a)
	}
	s.j++
	return out
}

func (s *activityStream) next() []string {
	n := activityMinLen + s.j%(activityMaxLen-activityMinLen+1)
	seen := make(map[int]bool, n)
	out := make([]string, 0, n)
	for d := 0; d < n; d++ {
		u := s.off[d] + float64(s.j)*weylAlpha[d]
		a := s.z.rank(u - math.Floor(u))
		for seen[a] { // a repeated popular action: draw a replacement
			a = s.z.sample(s.r)
		}
		seen[a] = true
		out = append(out, actionName(a))
	}
	s.j++
	return out
}
