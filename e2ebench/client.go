package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client is one closed-loop session user: a single keep-alive connection
// whose next request goes out only after the previous one answered.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	tr   *tracer // when set, every request is recorded as a span
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, the raw body and the
// latency in milliseconds from writing the request to reading the whole
// body.
func (c *client) do(method, path string, body interface{}) (int, []byte, float64, error) {
	var rd io.Reader
	if body != nil {
		c.buf.Reset()
		if err := json.NewEncoder(&c.buf).Encode(body); err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(c.buf.Bytes())
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if c.tr != nil {
		c.tr.record("client.request", method+" "+req.URL.Path, 0, 0, t0, t1)
	}
	ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
	return resp.StatusCode, raw, ms, err
}

// call is do plus a 200 check and a JSON decode into out.
func (c *client) call(method, path string, body, out interface{}) ([]byte, float64, error) {
	code, raw, ms, err := c.do(method, path, body)
	if err != nil {
		return nil, ms, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return raw, ms, fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, ms, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return raw, ms, nil
}

// recommendRequest is the /v1/recommend body.
type recommendRequest struct {
	Activity []string `json:"activity"`
	Strategy string   `json:"strategy"`
	K        int      `json:"k"`
}

// recResponse is a /v1/recommend or /v1/users/{id}/recommend answer.
type recResponse struct {
	Epoch           uint64    `json:"epoch"`
	Strategy        string    `json:"strategy"`
	Recommendations []recItem `json:"recommendations"`
	UnknownActions  []string  `json:"unknown_actions"`
	Degraded        bool      `json:"degraded"`
}

// obs is one completed operation: when it completed and its latency.
type obs struct {
	at time.Time
	ms float64
}

// samples collects per-operation observations by operation class. Each
// client owns one; they are merged after the timed phase.
type samples map[string][]obs

func (s samples) add(class string, ms float64) { s[class] = append(s[class], obs{time.Now(), ms}) }

// latencies returns the latencies of observations, in order.
func latencies(os []obs) []float64 {
	v := make([]float64, len(os))
	for i, o := range os {
		v[i] = o.ms
	}
	return v
}

func mergeSamples(all []samples) samples {
	out := samples{}
	for _, s := range all {
		for k, v := range s {
			out[k] = append(out[k], v...)
		}
	}
	return out
}

// tally counts operations and their outcomes across clients.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	firstErr  error
}

// op records one operation: err marks a failed operation (transport error
// or unexpected status), bad an answer that was served but incorrect.
func (t *tally) op(err, bad error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
	}
	if bad != nil {
		t.wrong++
	}
	if t.firstErr == nil {
		if err != nil {
			t.firstErr = err
		} else if bad != nil {
			t.firstErr = bad
		}
	}
}

// closedLoop runs n clients for d, each calling round(c, i) for its i-th
// round until the time is up. Rounds always complete, so every run
// attempts whole rounds of the same operations.
func closedLoop(n int, d time.Duration, round func(c, i int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(end); i++ {
				round(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// closedRounds runs n clients for rounds rounds each, as closedLoop does
// for a duration.
func closedRounds(n, rounds int, round func(c, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				round(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// wrongAnswer records an incorrect answer found by a check made after the
// operation itself was counted.
func (t *tally) wrongAnswer(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wrong++
	if t.firstErr == nil {
		t.firstErr = err
	}
}
