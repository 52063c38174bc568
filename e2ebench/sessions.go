package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// user-sessions shape. Each client owns usersPerClient session slots and
// visits them round-robin; a session ends after sessionRounds rounds with
// a delete, and a fresh user takes the slot, which keeps histories (and so
// per-request work) from growing over the run. Client 0 ingests a batch
// every ingestEvery rounds.
const (
	usersPerClient = 16
	sessionRounds  = 8
	ingestEvery    = 64
	ingestBatch    = 8
	// The block cache is capped below the decoded posting bytes a run
	// touches and the WAL compacts at a size the run crosses several times;
	// README.md records the measured figures.
	blockCacheBytes = 1 << 20
	compactWALBytes = 64 << 10
)

// durableArgs are the storage and user-store flags of every user-sessions
// start after the seeding one.
func durableArgs(storeDir string) []string {
	return []string{
		"-snapshot-dir", storeDir, "-wal-sync", "-snapshot-compress",
		"-block-cache-bytes", fmt.Sprint(blockCacheBytes),
		"-compact-wal-bytes", fmt.Sprint(compactWALBytes),
	}
}

type userSlot struct {
	id     string
	hist   []string // the benchmark's record: distinct actions in append order
	set    map[string]bool
	rounds int
}

type sessionClient struct {
	cl      *client
	acts    *activityStream
	slots   []*userSlot
	gen     int
	deleted []string
	kept    []recSample
	lat     samples
}

// appendResponse is the POST /v1/users/{id}/actions answer.
type appendResponse struct {
	Epoch uint64 `json:"epoch"`
	Added int    `json:"added"`
	Total int    `json:"total"`
}

type ingestResponse struct {
	Epoch uint64 `json:"epoch"`
	Added int    `json:"added"`
}

func (sc *sessionClient) newSlot(c, j int) *userSlot {
	sc.gen++
	return &userSlot{id: fmt.Sprintf("c%d-u%d-g%d", c, j, sc.gen), set: map[string]bool{}}
}

// sessions drives the user-sessions loop.
type sessions struct {
	e       *env
	clients []*sessionClient
	ingests *rng
	epochs  map[uint64]int // acknowledged epoch → implementations
	rounds  []int          // rounds each client has run
}

func runUserSessions(e *env) (*outcome, error) {
	o := newOutcome()
	storeDir := filepath.Join(e.dir, "store")

	// The seeding start writes the store directory; every timed start
	// recovers from it.
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	seedd, err := startDaemon(e.bin, e.dir, "seed", addr, append([]string{"-library", e.libPath}, durableArgs(storeDir)...)...)
	if err != nil {
		return nil, err
	}
	if err := seedd.waitReady(time.Now().Add(readyTimeout), nil); err != nil {
		return nil, err
	}
	seedd.stop()

	start := func(name string) (*daemon, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		return startDaemon(e.bin, e.dir, name, addr, durableArgs(storeDir)...)
	}
	ds, err := startTimed(o, sessionSetupRuns, func() ([]*daemon, func() error, error) {
		d, err := start("durable")
		if err != nil {
			return nil, nil, err
		}
		return []*daemon{d}, func() error { return d.waitReady(time.Now().Add(readyTimeout), nil) }, nil
	})
	if err != nil {
		return nil, err
	}
	d := ds[0]
	var ready struct {
		Epoch uint64 `json:"epoch"`
	}
	if _, err := getJSON(d.url("/readyz"), &ready); err != nil {
		return nil, err
	}
	s := &sessions{e: e, ingests: newRNG(e.seed, 7), epochs: map[uint64]int{ready.Epoch: len(e.ref.impls)},
		rounds: make([]int, numClients)}
	for c := 0; c < numClients; c++ {
		sc := &sessionClient{cl: newClient(d.url("")), acts: newActivityStream(newRNG(e.seed, 40+uint64(c)), e.zipf), lat: samples{}}
		for j := 0; j < usersPerClient; j++ {
			sc.slots = append(sc.slots, sc.newSlot(c, j))
		}
		defer sc.cl.close()
		s.clients = append(s.clients, sc)
	}

	logBefore := countCompactions(d)
	closedLoop(numClients, warmup, func(c, _ int) {
		s.round(c, s.rounds[c], &o.tally, false)
		s.rounds[c]++
	})
	timedPhase(e, o, ds, func(c, _ int) {
		s.round(c, s.rounds[c], &o.tally, true)
		s.rounds[c]++
	})
	o.extra["compactions"] = metric{float64(countCompactions(d) - logBefore), "count"}
	var all []samples
	for _, sc := range s.clients {
		all = append(all, sc.lat)
	}
	o.lat = mergeSamples(all)

	var met serverMetrics
	if _, err := getJSON(d.url("/v1/metrics"), &met); err != nil {
		return nil, err
	}
	met.report(o)
	if err := notePeakRSS(o, ds); err != nil {
		return nil, err
	}
	if e.trace {
		traceSessions(e, o, s)
	}

	// Durability: kill without warning, restart, and require every
	// acknowledged write back.
	if _, err := getJSON(d.url("/readyz"), &ready); err != nil {
		return nil, err
	}
	d.kill()
	d, err = start("restarted")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := d.waitReady(time.Now().Add(readyTimeout), nil); err != nil {
		return nil, err
	}
	if err := s.checkRecovered(d, ready.Epoch, o); err != nil {
		return nil, err
	}
	d.stop()

	kept := make([][]recSample, len(s.clients))
	for c, sc := range s.clients {
		for _, k := range sc.kept {
			lim, ok := s.epochs[k.epoch]
			if !ok {
				o.tally.wrongAnswer(fmt.Errorf("user recommend answered at unacknowledged epoch %d", k.epoch))
				continue
			}
			k.limit = lim
			kept[c] = append(kept[c], k)
		}
	}
	o.extra["reference_checked"] = metric{float64(checkSamples(e, o, kept)), "count"}
	return o, nil
}

// countCompactions counts the store's compaction log lines so far.
func countCompactions(d *daemon) int {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return 0
	}
	return strings.Count(string(b), "compacted WAL into snapshot")
}

// round is one client round: append to the next session's user, then
// read its recommendations; sampled rounds also compare the stored-history
// answer with a stateless one on the benchmark's record of the history.
func (s *sessions) round(c, i int, t *tally, record bool) {
	sc := s.clients[c]
	slot := sc.slots[i%usersPerClient]
	strategy := strategies[(i+i/usersPerClient)%len(strategies)]

	acts := sc.acts.nextActions(1 + (i/usersPerClient)%2)
	var ar appendResponse
	_, ms, err := sc.cl.call(http.MethodPost, "/v1/users/"+url.PathEscape(slot.id)+"/actions",
		map[string][]string{"actions": acts}, &ar)
	if err != nil {
		t.op(err, nil)
		return
	}
	added := 0
	for _, a := range acts {
		if !slot.set[a] {
			slot.set[a] = true
			slot.hist = append(slot.hist, a)
			added++
		}
	}
	var bad error
	if ar.Added != added || ar.Total != len(slot.hist) {
		bad = fmt.Errorf("append to %s: added %d total %d, want %d and %d", slot.id, ar.Added, ar.Total, added, len(slot.hist))
	}
	t.op(nil, bad)
	if record {
		sc.lat.add("user_append", ms)
	}

	path := "/v1/users/" + url.PathEscape(slot.id) + "/recommend?k=" + fmt.Sprint(recommendK) + "&strategy=" + strategy
	var rr recResponse
	raw, ms, err := sc.cl.call(http.MethodGet, path, nil, &rr)
	if err != nil {
		t.op(err, nil)
		return
	}
	bad = checkProperties(rr.Recommendations, slot.hist, recommendK)
	t.op(nil, bad)
	if record {
		sc.lat.add("recommend."+strategy, ms)
	}
	if record && i%sampleEvery == 0 && len(sc.kept) < maxChecked*len(strategies) {
		s.checkStateless(sc, slot, strategy, path, raw, rr, t)
	}

	slot.rounds++
	if slot.rounds == sessionRounds {
		_, ms, err := sc.cl.call(http.MethodDelete, "/v1/users/"+url.PathEscape(slot.id), nil, nil)
		t.op(err, nil)
		if err == nil && record {
			sc.lat.add("user_delete", ms)
		}
		sc.deleted = append(sc.deleted, slot.id)
		sc.slots[i%usersPerClient] = sc.newSlot(c, i%usersPerClient)
	}

	if c == 0 && i%ingestEvery == ingestEvery-1 {
		s.ingest(sc, t, record)
	}
}

// checkStateless compares a stored-history answer byte for byte with
// POST /v1/recommend on the benchmark's record of the same history at the
// same epoch, retrying the pair when an ingest moved the epoch between
// them, and keeps the answer for the reference check.
func (s *sessions) checkStateless(sc *sessionClient, slot *userSlot, strategy, path string, raw []byte, rr recResponse, t *tally) {
	hist := append([]string(nil), slot.hist...)
	for try := 0; try < 5; try++ {
		var sr recResponse
		sraw, _, err := sc.cl.call(http.MethodPost, "/v1/recommend",
			recommendRequest{Activity: hist, Strategy: strategy, K: recommendK}, &sr)
		if err != nil {
			t.op(err, nil)
			return
		}
		if sr.Epoch == rr.Epoch {
			var bad error
			if !bytes.Equal(raw, sraw) {
				bad = fmt.Errorf("user %s %s differs from stateless:\n%s\n%s", slot.id, strategy, raw, sraw)
			}
			t.op(nil, bad)
			sc.kept = append(sc.kept, recSample{strategy: strategy, activity: hist, items: rr.Recommendations, epoch: rr.Epoch})
			return
		}
		t.op(nil, nil)
		raw, _, err = sc.cl.call(http.MethodGet, path, nil, &rr)
		if err != nil {
			t.op(err, nil)
			return
		}
	}
	t.wrongAnswer(fmt.Errorf("user %s: epoch kept moving during the stateless comparison", slot.id))
}

// ingest publishes the next batch of implementations.
func (s *sessions) ingest(sc *sessionClient, t *tally, record bool) {
	batch := make([]impl, ingestBatch)
	base := len(s.e.ref.impls)
	for j := range batch {
		batch[j] = genImpl(s.ingests, s.e.zipf, fmt.Sprintf("ingest%07d", base+j))
	}
	var ir ingestResponse
	_, ms, err := sc.cl.call(http.MethodPost, "/v1/implementations", map[string][]impl{"implementations": batch}, &ir)
	if err != nil {
		t.op(err, nil)
		return
	}
	var bad error
	if ir.Added != len(batch) {
		bad = fmt.Errorf("ingest added %d of %d", ir.Added, len(batch))
	}
	t.op(nil, bad)
	s.e.ref.add(batch...)
	s.epochs[ir.Epoch] = len(s.e.ref.impls)
	if record {
		sc.lat.add("ingest", ms)
	}
}

// checkRecovered verifies the restarted daemon against the benchmark's
// record: the acknowledged epoch and library size, every live history
// (an idempotent re-append reports its size), a sample of stored-history
// answers against stateless ones, and deleted users staying deleted.
func (s *sessions) checkRecovered(d *daemon, epoch uint64, o *outcome) error {
	cl := newClient(d.url(""))
	defer cl.close()
	var st struct {
		Epoch           uint64 `json:"epoch"`
		Implementations int    `json:"implementations"`
	}
	if _, _, err := cl.call(http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return err
	}
	if st.Epoch != epoch || st.Implementations != len(s.e.ref.impls) {
		o.tally.wrongAnswer(fmt.Errorf("recovered epoch %d with %d implementations, acknowledged %d with %d",
			st.Epoch, st.Implementations, epoch, len(s.e.ref.impls)))
	}
	users, compared, gone := 0, 0, 0
	for _, sc := range s.clients {
		for j, slot := range sc.slots {
			if len(slot.hist) == 0 {
				continue
			}
			var ar appendResponse
			if _, _, err := cl.call(http.MethodPost, "/v1/users/"+url.PathEscape(slot.id)+"/actions",
				map[string][]string{"actions": slot.hist[:1]}, &ar); err != nil {
				return fmt.Errorf("recovered user %s: %w", slot.id, err)
			}
			if ar.Added != 0 || ar.Total != len(slot.hist) {
				o.tally.wrongAnswer(fmt.Errorf("recovered user %s has %d actions, acknowledged %d", slot.id, ar.Total, len(slot.hist)))
			}
			users++
			if j%4 != 0 {
				continue
			}
			strategy := strategies[compared%len(strategies)]
			raw, _, err := cl.call(http.MethodGet, "/v1/users/"+url.PathEscape(slot.id)+"/recommend?k="+fmt.Sprint(recommendK)+"&strategy="+strategy, nil, nil)
			if err != nil {
				return err
			}
			sraw, _, err := cl.call(http.MethodPost, "/v1/recommend",
				recommendRequest{Activity: slot.hist, Strategy: strategy, K: recommendK}, nil)
			if err != nil {
				return err
			}
			if !bytes.Equal(raw, sraw) {
				o.tally.wrongAnswer(fmt.Errorf("recovered user %s %s differs from stateless", slot.id, strategy))
			}
			compared++
		}
		for j, id := range sc.deleted {
			if j%8 != 0 {
				continue
			}
			code, _, _, err := cl.do(http.MethodGet, "/v1/users/"+url.PathEscape(id)+"/recommend", nil)
			if err != nil {
				return err
			}
			if code != http.StatusNotFound {
				o.tally.wrongAnswer(fmt.Errorf("deleted user %s answered %d after restart", id, code))
			}
			gone++
		}
	}
	o.extra["recovered_users_checked"] = metric{float64(users), "count"}
	o.extra["recovered_deleted_checked"] = metric{float64(gone), "count"}
	return nil
}

// serverMetrics is the part of /v1/metrics the benchmark reads.
type serverMetrics struct {
	Users struct {
		Counters struct {
			Views     float64 `json:"views"`
			Hits      float64 `json:"hits"`
			Advances  float64 `json:"advances"`
			Cold      float64 `json:"cold"`
			ViewBytes float64 `json:"view_bytes"`
		} `json:"counters"`
	} `json:"users"`
	BlockCache struct {
		Counters struct {
			Hits        float64 `json:"hits"`
			Misses      float64 `json:"misses"`
			Evicted     float64 `json:"evicted"`
			BudgetBytes float64 `json:"budget_bytes"`
		} `json:"counters"`
	} `json:"block_cache"`
}

func (m *serverMetrics) report(o *outcome) {
	u, b := m.Users.Counters, m.BlockCache.Counters
	o.extra["users.views"] = metric{u.Views, "count"}
	o.extra["users.hits"] = metric{u.Hits, "count"}
	o.extra["users.advances"] = metric{u.Advances, "count"}
	o.extra["users.cold"] = metric{u.Cold, "count"}
	o.extra["users.view_bytes"] = metric{u.ViewBytes, "bytes"}
	o.extra["block_cache.hits"] = metric{b.Hits, "count"}
	o.extra["block_cache.misses"] = metric{b.Misses, "count"}
	o.extra["block_cache.evicted"] = metric{b.Evicted, "count"}
	o.extra["block_cache.budget_bytes"] = metric{b.BudgetBytes, "bytes"}
}
