package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

// Reference checks are brute force, so each run checks a sample: every
// sampleEvery-th round of each client, at most maxChecked per client.
const (
	sampleEvery = 8
	maxChecked  = 12
)

// recSample is one served ranking kept for checking after the timed phase.
type recSample struct {
	strategy string
	activity []string
	items    []recItem
	raw      []byte
	epoch    uint64
	limit    int // implementations of the library at the answering epoch
}

// newRecommendStream yields a client's activities; each round sends the
// next four, one per strategy in fixed order. Streams depend only on the
// seed, the client and the phase.
func newRecommendStream(e *env, client int, phase uint64) *activityStream {
	return newActivityStream(newRNG(e.seed, phase*16+uint64(client)), e.zipf)
}

// Request streams by phase; each phase draws fresh requests, so no phase
// is answered from results cached by an earlier one.
const (
	phaseWarm = 2 + iota
	phaseTimed
	phaseTraced
	phaseReplay
	phaseAlloc
)

// cacheFillRounds is the warm-up of the stateless recommend loop, in
// rounds per client. A single node answers through a 4096-entry result
// cache per strategy; the warm-up sends each strategy 5120 distinct
// activities, so the caches are full, and memory at its steady state,
// before the timed phase starts, however fast the host runs.
const cacheFillRounds = 5120 / numClients

// driveRecommends runs the stateless recommend loop against base: a
// warm-up, then the timed phase, checking every answer's properties and
// keeping a sample for the reference check.
func driveRecommends(e *env, ds []*daemon, base string, o *outcome) [][]recSample {
	clients := make([]*client, numClients)
	for c := range clients {
		clients[c] = newClient(base)
		defer clients[c].close()
	}
	warm := make([]*activityStream, numClients)
	timed := make([]*activityStream, numClients)
	for c := range clients {
		warm[c] = newRecommendStream(e, c, phaseWarm)
		timed[c] = newRecommendStream(e, c, phaseTimed)
	}
	closedRounds(numClients, cacheFillRounds, func(c, i int) {
		for _, s := range strategies {
			recommendOnce(clients[c], s, warm[c].next(), &o.tally)
		}
	})
	lat := make([]samples, numClients)
	kept := make([][]recSample, numClients)
	keys := make([][]string, numClients)
	for c := range lat {
		lat[c] = samples{}
	}
	timedPhase(e, o, ds, func(c, i int) {
		keep := i%sampleEvery == 0 && len(kept[c]) < maxChecked*len(strategies)
		for _, s := range strategies {
			act := timed[c].next()
			keys[c] = append(keys[c], s+"|"+canonical(act))
			smp, ms, ok := recommendOnce(clients[c], s, act, &o.tally)
			if ok {
				lat[c].add("recommend."+s, ms)
				if keep {
					kept[c] = append(kept[c], smp)
				}
			}
		}
	})
	o.lat = mergeSamples(lat)
	o.extra["repeat_share"] = metric{repeatShare(keys), "ratio"}
	return kept
}

// recommendOnce sends one POST /v1/recommend and checks the answer's
// properties.
func recommendOnce(c *client, strategy string, activity []string, t *tally) (recSample, float64, bool) {
	var resp recResponse
	raw, ms, err := c.call(http.MethodPost, "/v1/recommend",
		recommendRequest{Activity: activity, Strategy: strategy, K: recommendK}, &resp)
	if err != nil {
		t.op(err, nil)
		return recSample{}, 0, false
	}
	var bad error
	if resp.Degraded {
		bad = fmt.Errorf("%s: degraded answer", strategy)
	} else if err := checkProperties(resp.Recommendations, activity, recommendK); err != nil {
		bad = fmt.Errorf("%s %v: %w", strategy, activity, err)
	}
	t.op(nil, bad)
	return recSample{strategy: strategy, activity: activity, items: resp.Recommendations, raw: raw}, ms, true
}

// checkSamples verifies kept answers against the reference scorer.
func checkSamples(e *env, o *outcome, kept [][]recSample) int {
	t0 := time.Now()
	defer func() {
		fmt.Fprintf(os.Stderr, "e2ebench: reference checks took %v\n", time.Since(t0).Round(time.Millisecond))
	}()
	n := 0
	for _, ks := range kept {
		for _, s := range ks {
			ref, err := e.ref.recommendLimit(s.strategy, s.activity, s.limit)
			if err == nil {
				err = e.ref.checkAgainstReference(s.strategy, s.items, ref, recommendK)
			}
			if err != nil {
				o.tally.wrongAnswer(fmt.Errorf("reference check %v: %w", s.activity, err))
			}
			n++
		}
	}
	return n
}

// startTimed starts daemons n times, timing each start until every process
// serves, and leaves the last set running. start returns the started
// daemons and a readiness wait.
func startTimed(o *outcome, n int, start func() ([]*daemon, func() error, error)) ([]*daemon, error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ds, ready, err := start()
		if err == nil {
			err = ready()
		}
		if err != nil {
			for _, d := range ds {
				d.kill()
			}
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if i == n-1 {
			return ds, nil
		}
		for _, d := range ds {
			d.stop()
		}
	}
	return nil, nil
}

// notePeakRSS records the peak resident set (VmHWM) of ds as a figure.
func notePeakRSS(o *outcome, ds []*daemon) error {
	v, err := sumStatusMiB(ds, "VmHWM:")
	o.extra["rss_peak_mb"] = metric{v, "MiB"}
	return err
}

// sumStatusMiB sums a /proc status size field over ds.
func sumStatusMiB(ds []*daemon, field string) (float64, error) {
	total := 0.0
	for _, d := range ds {
		v, err := d.statusMiB(field)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// rssEvery is how often sampleRSS reads the daemons' resident sets.
const rssEvery = 100 * time.Millisecond

// sampleRSS samples the summed resident set (VmRSS) of ds, in MiB, every
// rssEvery until the returned stop, which returns the samples.
func sampleRSS(ds []*daemon) (stop func() []float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var v []float64
	go func() {
		defer close(done)
		tk := time.NewTicker(rssEvery)
		defer tk.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tk.C:
				if x, err := sumStatusMiB(ds, "VmRSS:"); err == nil {
					v = append(v, x)
				}
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return v
	}
}

// timedPhase runs the clients' rounds for the run length, recording when
// the phase ran and sampling the resident set of ds meanwhile.
func timedPhase(e *env, o *outcome, ds []*daemon, round func(c, i int)) {
	stop := sampleRSS(ds)
	o.start = time.Now()
	o.elapsed = closedLoop(numClients, e.seconds, round)
	o.rss = stop()
}

// runRecommendMix: one single-node goalrecd serving the stateless
// recommend path.
func runRecommendMix(e *env) (*outcome, error) {
	o := newOutcome()
	ds, err := startTimed(o, setupRuns, func() ([]*daemon, func() error, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, nil, err
		}
		d, err := startDaemon(e.bin, e.dir, "single", addr, "-library", e.libPath)
		if err != nil {
			return nil, nil, err
		}
		return []*daemon{d}, func() error { return d.waitReady(time.Now().Add(readyTimeout), nil) }, nil
	})
	if err != nil {
		return nil, err
	}
	d := ds[0]
	kept := driveRecommends(e, ds, d.url(""), o)
	if err := notePeakRSS(o, ds); err != nil {
		return nil, err
	}
	if e.trace {
		traceRecommend(e, o, d.url(""))
	}
	d.stop()
	for c := range kept {
		for i := range kept[c] {
			kept[c][i].limit = len(e.ref.impls)
		}
	}
	o.extra["reference_checked"] = metric{float64(checkSamples(e, o, kept)), "count"}
	return o, nil
}

// repeatShare is the share of requests whose (strategy, activity)
// repeats an earlier request of the run — the requests the single node's
// per-recommender result cache can answer.
func repeatShare(keys [][]string) float64 {
	seen := map[string]bool{}
	rep, sent := 0, 0
	for _, ks := range keys {
		for _, k := range ks {
			if seen[k] {
				rep++
			}
			seen[k] = true
			sent++
		}
	}
	if sent == 0 {
		return 0
	}
	return float64(rep) / float64(sent)
}

// canonical is an activity's order-free key.
func canonical(activity []string) string {
	s := append([]string(nil), activity...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return strings.Join(s, ",")
}
