package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goalrec"
	"goalrec/internal/cluster"
	"goalrec/internal/server"
	"goalrec/internal/strategy"
	"goalrec/internal/wal"
)

// Replay sizes of a traced run: requests per strategy through each layer,
// and rounds of the in-process user sessions.
const (
	replayPerStrategy        = 48
	replayClusterPerStrategy = 24
	replayUserRounds         = 8 * usersPerClient * sessionRounds
	replayWALAppends         = 64
	replayCompactions        = 2
)

// traceRounds runs the workload's rounds once more for half the run
// length, alternating rounds with the clients' tracer on and off, and
// reports the tracing overhead: per operation class, the median latency of
// traced rounds minus that of untraced ones, and the median of those
// differences over the classes. Every operation is counted and checked in
// o.tally like those of the timed phase. round(c, i, lat) runs client c's
// i-th round, recording its latencies in lat.
func traceRounds(e *env, o *outcome, clients []*client, round func(c, i int, lat samples)) {
	var lat [2][]samples // untraced, traced; one per client
	for h := range lat {
		lat[h] = make([]samples, numClients)
		for c := range lat[h] {
			lat[h][c] = samples{}
		}
	}
	closedLoop(numClients, e.seconds/2, func(c, i int) {
		h := i % 2
		clients[c].tr = nil
		if h == 1 {
			clients[c].tr = e.tr
		}
		round(c, i, lat[h][c])
	})
	for _, cl := range clients {
		cl.tr = nil
	}
	off, on := mergeSamples(lat[0]), mergeSamples(lat[1])
	var diffs []float64
	for class, v := range on {
		if u := off[class]; len(u) > 0 {
			diffs = append(diffs, (medianOf(latencies(v))-medianOf(latencies(u)))*1e3)
		}
	}
	o.layers["trace.overhead_us"] = metric{medianOf(diffs), "us"}
}

func traceRecommend(e *env, o *outcome, base string) {
	clients := make([]*client, numClients)
	streams := make([]*activityStream, numClients)
	for c := range clients {
		clients[c] = newClient(base)
		defer clients[c].close()
		streams[c] = newRecommendStream(e, c, phaseTraced)
	}
	traceRounds(e, o, clients, func(c, _ int, lat samples) {
		for _, s := range strategies {
			if _, ms, ok := recommendOnce(clients[c], s, streams[c].next(), &o.tally); ok {
				lat.add("recommend."+s, ms)
			}
		}
	})
}

func traceSessions(e *env, o *outcome, s *sessions) {
	clients := make([]*client, numClients)
	for c, sc := range s.clients {
		clients[c] = sc.cl
	}
	traceRounds(e, o, clients, func(c, _ int, lat samples) {
		s.clients[c].lat = lat
		s.round(c, s.rounds[c], &o.tally, true)
		s.rounds[c]++
	})
}

// replayLayers replays generated requests in process through each layer's
// exported functions under spans and fills o.layers with the per-layer
// metrics. Every traced run replays every layer, so each traced run reports
// every per-layer metric whatever its workload.
func replayLayers(e *env, o *outcome) error {
	tr := e.tr
	ids := &traceID{}
	t0 := time.Now()
	lib, err := goalrec.LoadLibraryFile(e.libPath)
	if err != nil {
		return err
	}
	tr.record("goalrec.library_load", "", ids.next(), 0, t0, time.Now())
	reqs := replayRequests(e, phaseReplay, replayPerStrategy)

	single, err := replayServer(e, o, lib, reqs, ids)
	if err != nil {
		return fmt.Errorf("server replay: %w", err)
	}
	replayShards(e, lib, reqs, ids)
	if err := replayCluster(e, o, lib, reqs, single, ids); err != nil {
		return fmt.Errorf("cluster replay: %w", err)
	}
	if err := replayStore(e, o, lib, ids); err != nil {
		return fmt.Errorf("store replay: %w", err)
	}

	if err := tr.writeFile(spansPath(e)); err != nil {
		return err
	}
	ls := aggregate(tr.spans)
	L := o.layers
	for _, s := range strategies {
		L["server.handler_us."+s] = metric{ls.medianDur("server.handler." + s), "us"}
		L["goalrec.recommend_us."+s] = metric{ls.medianDur("goalrec.recommend." + s), "us"}
		L["strategy.shard_score_us."+s] = metric{ls.medianDur("strategy.shard_score." + s), "us"}
		L["cluster.recommend_us."+s] = metric{ls.medianDur("cluster.recommend." + s), "us"}
	}
	L["server.front_end_us"] = metric{ls.medianSelf("server.handler"), "us"}
	L["server.transport_us"] = metric{ls.medianSelf("server.client"), "us"}
	L["cluster.front_end_us"] = metric{ls.medianSelf("cluster.client"), "us"}
	L["goalrec.library_load_ms"] = metric{ls.medianDur("goalrec.library_load") / 1e3, "ms"}
	L["goalrec.store_open_ms"] = metric{ls.medianDur("goalrec.store_open") / 1e3, "ms"}
	L["goalrec.ingest_us"] = metric{ls.medianDur("goalrec.ingest"), "us"}
	L["goalrec.compact_ms"] = metric{ls.medianDur("goalrec.compact") / 1e3, "ms"}
	L["core.snapshot_open_ms"] = metric{ls.medianDur("core.snapshot_open") / 1e3, "ms"}
	L["userstore.append_us"] = metric{ls.medianDur("userstore.append"), "us"}
	L["userstore.recommend_us.warm"] = metric{ls.medianDur("userstore.recommend.warm"), "us"}
	L["userstore.recommend_us.cold"] = metric{ls.medianDur("userstore.recommend.cold"), "us"}
	L["wal.append_sync_us"] = metric{ls.medianDur("wal.append_sync"), "us"}
	return nil
}

// replayRequest is one generated stateless request.
type replayRequest struct {
	strategy string
	activity []string
}

// replayRequests draws n requests per strategy, interleaved by strategy.
func replayRequests(e *env, phase uint64, n int) []replayRequest {
	st := newRecommendStream(e, 0, phase)
	var out []replayRequest
	for i := 0; i < n; i++ {
		for _, s := range strategies {
			out = append(out, replayRequest{s, st.next()})
		}
	}
	return out
}

// serveLoopback serves h on a loopback listener until the returned stop.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// daemonServer builds the server goalrecd builds for a single node with
// default flags, request logging included.
func daemonServer(lib *goalrec.Library) *server.Server {
	eng := goalrec.NewEngineFromLibrary(lib)
	logger := log.New(io.Discard, "goalrecd: ", log.LstdFlags)
	return server.NewFromEngine(eng, logger,
		server.WithUserStore(goalrec.NewUserStore(eng, goalrec.UserStoreOptions{})))
}

const (
	hdrTrace = "X-Bench-Trace"
	hdrLabel = "X-Bench-Label"
)

// replayServer sends each request over loopback HTTP to an in-process
// server whose handler runs under a span, then repeats the request's
// scoring through Library.Recommender with the daemon's options. Spans:
// server.client ⊃ server.handler ⊃ goalrec.recommend (replayed). It
// returns the response bodies, in request order.
func replayServer(e *env, o *outcome, lib *goalrec.Library, reqs []replayRequest, ids *traceID) ([][]byte, error) {
	tr := e.tr
	srv := daemonServer(lib)
	var handlerSpans sync.Map // trace id → handler span id
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid, _ := strconv.ParseInt(r.Header.Get(hdrTrace), 10, 64)
		t0 := time.Now()
		srv.ServeHTTP(w, r)
		handlerSpans.Store(tid, tr.record("server.handler", r.Header.Get(hdrLabel), tid, 0, t0, time.Now()))
	})
	base, stop, err := serveLoopback(h)
	if err != nil {
		return nil, err
	}
	defer stop()
	cl := newClient(base)
	defer cl.close()
	recs := map[string]goalrec.Recommender{}
	for _, s := range strategies {
		rec, err := lib.Recommender(goalrec.Strategy(s), goalrec.WithDistanceMetric("cosine"), goalrec.WithCache(4096))
		if err != nil {
			return nil, err
		}
		recs[s] = rec
	}
	ctx := context.Background()
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		tid := ids.next()
		body, err := json.Marshal(recommendRequest{Activity: q.activity, Strategy: q.strategy, K: recommendK})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/recommend", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set(hdrTrace, strconv.FormatInt(tid, 10))
		req.Header.Set(hdrLabel, q.strategy)
		t0 := time.Now()
		resp, err := cl.hc.Do(req)
		if err != nil {
			return nil, err
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("replayed recommend: status %d %v", resp.StatusCode, err)
		}
		cid := tr.record("server.client", q.strategy, tid, 0, t0, t1)
		hv, ok := handlerSpans.Load(tid)
		if !ok {
			return nil, fmt.Errorf("no handler span for request %d", tid)
		}
		hid := hv.(int64)
		tr.setParent(hid, cid)
		k0 := time.Now()
		if _, err := recs[q.strategy].RecommendContext(ctx, q.activity, recommendK); err != nil {
			return nil, err
		}
		tr.replayed("goalrec.recommend", q.strategy, hid, time.Since(k0))
	}

	// Allocation per request, from direct handler calls on fresh requests
	// (the server's result cache would answer the replayed ones).
	fresh := replayRequests(e, phaseAlloc, replayPerStrategy/4)
	built := make([]*http.Request, len(fresh))
	for i, q := range fresh {
		body, err := json.Marshal(recommendRequest{Activity: q.activity, Strategy: q.strategy, K: recommendK})
		if err != nil {
			return nil, err
		}
		built[i] = httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range built {
		srv.ServeHTTP(httptest.NewRecorder(), r)
	}
	runtime.ReadMemStats(&m1)
	o.layers["server.alloc_bytes_per_request"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(built)), "bytes"}
	return bodies, nil
}

// replayShards times the exported per-shard partial scoring functions on
// the first half of the library, as a cluster worker runs them.
func replayShards(e *env, lib *goalrec.Library, reqs []replayRequest, ids *traceID) {
	tr := e.tr
	n := lib.NumImplementations()
	half := n / 2
	p0, err0 := lib.Partition(0, half)
	p1, err1 := lib.Partition(half, n)
	if err0 != nil || err1 != nil {
		panic(fmt.Sprint("partitioning a valid range failed: ", err0, err1)) // unreachable for 0 < half < n
	}
	fcmp := strategy.NewFocus(p0.Core(), strategy.Completeness)
	fcl := strategy.NewFocus(p0.Core(), strategy.Closeness)
	br := strategy.NewBreadth(p0.Core())
	bm0, bm1 := strategy.NewBestMatch(p0.Core()), strategy.NewBestMatch(p1.Core())
	ctx := context.Background()
	for _, q := range reqs {
		tid := ids.next()
		act, _ := lib.ResolveActivity(q.activity)
		t0 := time.Now()
		switch q.strategy {
		case "focus-cmp":
			_, _ = fcmp.TopEmissions(ctx, act, recommendK, 0, strategy.NewFocusFloorShare())
		case "focus-cl":
			_, _ = fcl.TopEmissions(ctx, act, recommendK, 0, strategy.NewFocusFloorShare())
		case "breadth":
			_, _ = br.ShardPartial(ctx, act)
		case "best-match":
			s0, _ := bm0.ShardSurvey(ctx, act)
			tr.record("strategy.shard_score", q.strategy, tid, 0, t0, time.Now())
			s1, _ := bm1.ShardSurvey(ctx, act)
			cands, goals, _ := strategy.MergeBestMatchSurveys([]*strategy.BestMatchSurvey{s0, s1})
			t0 = time.Now()
			_, _ = bm0.ShardVectors(ctx, cands, goals)
		}
		tr.record("strategy.shard_score", q.strategy, tid, 0, t0, time.Now())
	}
}

// countingListener counts the bytes its connections carry.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// serveShards serves eng as two in-process cluster workers on loopback,
// each over half the implementation range, counting their comms bytes in
// wire when it is not nil. It returns their comms addresses and a stop.
func serveShards(eng *goalrec.Engine, half int, wire *atomic.Int64) ([]string, func(), error) {
	var peers []string
	var stops []func()
	stop := func() {
		for _, f := range stops {
			f()
		}
	}
	for _, rg := range [][2]int{{0, half}, {half, -1}} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		if wire != nil {
			ln = countingListener{ln, wire}
		}
		w := cluster.NewWorker(eng, cluster.WorkerConfig{Lo: rg[0], Hi: rg[1]})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Serve(ln) // returns when closed
		}()
		stops = append(stops, func() { w.Close(); <-done })
		peers = append(peers, ln.Addr().String())
	}
	return peers, stop, nil
}

// startCoordinator starts a goalrecd coordinator process over peers. It is
// ready once /readyz answers 200 and a probe query is answered by every
// shard (not flagged degraded); the coordinator connects to its workers
// on its heartbeat or on a query, and the probe makes it connect at once.
func startCoordinator(e *env, peers []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e.bin, e.dir, "coordinator", addr,
		"-role", "coordinator", "-library", e.libPath, "-peers", strings.Join(peers, ","))
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(readyTimeout)
	if err := d.waitReady(deadline, nil); err != nil {
		d.kill()
		return nil, err
	}
	pc := newClient(d.url(""))
	defer pc.close()
	probe := recommendRequest{Activity: []string{actionName(0), actionName(1)}, Strategy: "focus-cmp", K: 1}
	for {
		var resp recResponse
		_, _, err := pc.call(http.MethodPost, "/v1/recommend", probe, &resp)
		if err == nil && !resp.Degraded && len(resp.Recommendations) == 1 {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("coordinator not answering from every shard after %v (last: %v, degraded %v)",
				readyTimeout, err, resp.Degraded)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replayCluster sends each request over HTTP to a goalrecd coordinator
// process in front of two in-process workers, then through
// Coordinator.Recommend in process against a second pair of workers whose
// listeners count comms bytes. Every coordinator answer must equal, byte
// for byte, the single node's answer to the same request (single).
// Spans: cluster.client ⊃ cluster.recommend (replayed), so the client
// span's self time is the coordinator's front end: HTTP, decode, encode.
func replayCluster(e *env, o *outcome, lib *goalrec.Library, reqs []replayRequest, single [][]byte, ids *traceID) error {
	tr := e.tr
	eng := goalrec.NewEngineFromLibrary(lib)
	half := lib.NumImplementations() / 2
	var wire atomic.Int64
	peers, stopShards, err := serveShards(eng, half, &wire)
	if err != nil {
		return err
	}
	defer stopShards()
	procPeers, stopProcShards, err := serveShards(eng, half, nil)
	if err != nil {
		return err
	}
	defer stopProcShards()
	d, err := startCoordinator(e, procPeers)
	if err != nil {
		return err
	}
	defer d.stop()
	co := cluster.NewCoordinator(eng, cluster.CoordinatorConfig{Peers: peers})
	defer co.Close()
	cl := newClient(d.url(""))
	defer cl.close()
	ctx := context.Background()
	bytesBy := map[string][]float64{}
	n := 0
	for i, q := range reqs {
		if n >= replayClusterPerStrategy*len(strategies) {
			break
		}
		n++
		tid := ids.next()
		t0 := time.Now()
		raw, _, err := cl.call(http.MethodPost, "/v1/recommend",
			recommendRequest{Activity: q.activity, Strategy: q.strategy, K: recommendK}, nil)
		if err != nil {
			return err
		}
		cid := tr.record("cluster.client", q.strategy, tid, 0, t0, time.Now())
		if !bytes.Equal(raw, single[i]) {
			o.tally.wrongAnswer(fmt.Errorf("coordinator answer differs from single node for %s %v:\n%s\n%s",
				q.strategy, q.activity, raw, single[i]))
		}
		b0 := wire.Load()
		k0 := time.Now()
		if _, err := co.Recommend(ctx, q.strategy, "cosine", q.activity, recommendK); err != nil {
			return err
		}
		tr.replayed("cluster.recommend", q.strategy, cid, time.Since(k0))
		bytesBy[q.strategy] = append(bytesBy[q.strategy], float64(wire.Load()-b0))
	}
	o.extra["single_node_compared"] = metric{float64(n), "count"}
	for _, s := range strategies {
		o.layers["comms.bytes_per_query."+s] = metric{medianOf(bytesBy[s]), "bytes"}
	}
	return nil
}

// replayStore replays user sessions and ingests in process against a
// durable store opened with the user-sessions daemon's storage options.
func replayStore(e *env, o *outcome, lib *goalrec.Library, ids *traceID) error {
	tr := e.tr
	goalrec.SetBlockCacheBytes(blockCacheBytes)
	dir := filepath.Join(e.dir, "trace-store")
	opts := goalrec.StoreOptions{SyncWAL: true, CompressPostings: true, CompactAtWALBytes: compactWALBytes}
	st, err := goalrec.OpenStore(dir, opts)
	if err != nil {
		return err
	}
	st.Engine().Swap(lib)
	if err := st.Err(); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}

	t0 := time.Now()
	st, err = goalrec.OpenStore(dir, opts)
	if err != nil {
		return err
	}
	defer st.Close()
	tr.record("goalrec.store_open", "", ids.next(), 0, t0, time.Now())
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.gsnp"))
	if err != nil || len(snaps) == 0 {
		return fmt.Errorf("no snapshot in %s (%v)", dir, err)
	}
	sort.Strings(snaps)
	t0 = time.Now()
	snap, err := goalrec.OpenSnapshotFile(snaps[len(snaps)-1])
	if err != nil {
		return err
	}
	tr.record("core.snapshot_open", "", ids.next(), 0, t0, time.Now())
	snap.Close()

	walPath := filepath.Join(dir, "ingest.wal")
	walSize := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			return -1
		}
		return fi.Size()
	}
	var perWrite []float64
	noteWrite := func(before int64) {
		if after := walSize(); before >= 0 && after > before {
			perWrite = append(perWrite, float64(after-before))
		}
	}

	bc0 := goalrec.BlockCacheMetrics()
	us := st.Users()
	r := newRNG(e.seed, 60)
	ingests := newRNG(e.seed, 61)
	ctx := context.Background()
	type slot struct {
		id      string
		queried bool
		rounds  int
	}
	slots := make([]*slot, usersPerClient)
	gen := 0
	for j := range slots {
		gen++
		slots[j] = &slot{id: fmt.Sprintf("replay-%d", gen)}
	}
	var viewBytes []float64
	for i := 0; i < replayUserRounds; i++ {
		if st := us.Stats(); st.Views > 0 {
			viewBytes = append(viewBytes, float64(st.ViewBytes)/float64(st.Views))
		}
		tid := ids.next()
		sl := slots[i%usersPerClient]
		acts := make([]string, 1+r.intn(2))
		for j := range acts {
			acts[j] = actionName(e.zipf.sample(r))
		}
		before := walSize()
		t0 := time.Now()
		if _, err := us.Append(sl.id, acts); err != nil {
			return err
		}
		tr.record("userstore.append", "", tid, 0, t0, time.Now())
		noteWrite(before)
		s := strategies[(i+i/usersPerClient)%len(strategies)]
		label := "warm"
		if !sl.queried {
			label = "cold"
		}
		t0 = time.Now()
		if _, err := us.Recommend(ctx, sl.id, goalrec.Strategy(s), recommendK); err != nil {
			return err
		}
		tr.record("userstore.recommend", label, tid, 0, t0, time.Now())
		sl.queried = true
		if sl.rounds++; sl.rounds == sessionRounds {
			if err := us.Delete(sl.id); err != nil {
				return err
			}
			gen++
			slots[i%usersPerClient] = &slot{id: fmt.Sprintf("replay-%d", gen)}
		}
		if i%ingestEvery == ingestEvery-1 {
			batch := make([]goalrec.Implementation, ingestBatch)
			for j := range batch {
				im := genImpl(ingests, e.zipf, fmt.Sprintf("replay-ingest%d-%d", i, j))
				batch[j] = goalrec.Implementation{Goal: im.Goal, Actions: im.Actions}
			}
			before := walSize()
			t0 := time.Now()
			if _, err := st.Engine().AddImplementations(batch); err != nil {
				return err
			}
			tr.record("goalrec.ingest", "", tid, 0, t0, time.Now())
			noteWrite(before)
		}
	}
	bc1 := goalrec.BlockCacheMetrics()
	hits, misses := float64(bc1.Hits-bc0.Hits), float64(bc1.Misses-bc0.Misses)
	o.layers["core.blockcache.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	o.layers["core.blockcache.evictions"] = metric{float64(bc1.Evicted - bc0.Evicted), "count"}
	ust := us.Stats()
	lookups := float64(ust.Hits + ust.Cold + ust.Advances + ust.Rebuilds)
	o.layers["userstore.view_hit_ratio"] = metric{float64(ust.Hits) / lookups, "ratio"}
	o.layers["userstore.view_bytes_per_view"] = metric{medianOf(viewBytes), "bytes"}
	o.layers["wal.bytes_per_write"] = metric{medianOf(perWrite), "bytes"}

	for i := 0; i < replayCompactions; i++ {
		t0 := time.Now()
		if err := st.Compact(); err != nil {
			return err
		}
		tr.record("goalrec.compact", "", ids.next(), 0, t0, time.Now())
	}

	w, err := wal.OpenWriter(filepath.Join(dir, "probe.wal"), 0, true)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < replayWALAppends; i++ {
		t0 := time.Now()
		if err := w.Append(payload); err != nil {
			w.Close()
			return err
		}
		tr.record("wal.append_sync", "", ids.next(), 0, t0, time.Now())
	}
	return w.Close()
}
