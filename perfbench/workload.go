package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"greenfpga/api"
	"greenfpga/internal/server"
	"greenfpga/internal/store"
)

// jobPoll is how long a durable-jobs client sleeps between status
// polls of a running job.
const jobPoll = 200 * time.Microsecond

// warmSalt offsets the salts of set-up warm-up ops, far above any
// timed op's, so warm-up never pre-computes a timed op's result.
const warmSalt = 500_000_000

// loopWarmSalt offsets the salts of the ops the closed loop runs
// before it starts timing, above the set-up warm-up's.
const loopWarmSalt = 1_500_000_000

// workload is one benchmark workload: a deck of request templates
// replayed in whole rounds.
type workload struct {
	name string
	// deck is one round of ops.
	deck []*template
	// perms are the seeded round orders; round r uses perms[r%len].
	perms [][]int
	// saltBase makes every seed's salts distinct.
	saltBase uint64
	// saltShift moves every op's salt while the closed loop warms up.
	saltShift uint64
	// pairs is hit-replay's working set (deck is its flattening).
	pairs []pair
	// salted workloads expect a fresh result per op (X-Cache: miss).
	salted bool
	// jobs marks durable-jobs: an op is one async job.
	jobs bool
	// warmRounds is how many rounds of warm-up ops set-up sends
	// (salted workloads).
	warmRounds int
	// clients is the number of closed-loop clients (at most nproc).
	// hit-replay and mc-study use one: with both vCPUs of the reference
	// machine busy with clients, their run-to-run spread doubled, while
	// cold-mix and durable-jobs were as steady or steadier with two.
	clients int
	// rssRounds is how many timed rounds peak_rss_mb covers: the
	// store's index grows with every cold-mix miss and durable job, so
	// a high-water mark read after a fixed amount of work does not
	// move with how many ops the machine's speed allowed. About a
	// third of a 20 s run on the reference machine.
	rssRounds int
	// hashAll keeps every op's response hash (set by the traced run).
	hashAll bool
}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name, saltBase: (seed%1000)*1_000_000 + 1}
	switch name {
	case "hit-replay":
		w.pairs, w.clients, w.rssRounds = hitWorkingSet(seed), 1, 400
		for _, p := range w.pairs {
			w.deck = append(w.deck, p.legacy, p.spec)
		}
	case "cold-mix":
		w.deck, w.salted, w.warmRounds, w.clients, w.rssRounds = coldDeck(seed), true, 8, 2, 2500
	case "mc-study":
		w.deck, w.salted, w.warmRounds, w.clients, w.rssRounds = mcDeck(seed), true, 1, 1, 40
	case "durable-jobs":
		w.deck, w.salted, w.jobs, w.warmRounds, w.clients, w.rssRounds = jobsDeck(seed), true, true, 2, 2, 600
	default:
		return nil, fmt.Errorf("unknown workload %q (hit-replay, cold-mix, mc-study, durable-jobs)", name)
	}
	r := rand.New(rand.NewPCG(seed, 0x726f756e64))
	for i := 0; i < 16; i++ {
		w.perms = append(w.perms, r.Perm(len(w.deck)))
	}
	return w, nil
}

// opAt resolves op index i to its template and salt.
func (w *workload) opAt(i int) (*template, uint64) {
	d := len(w.deck)
	round, pos := i/d, i%d
	slot := w.perms[round%len(w.perms)][pos]
	return w.deck[slot], w.saltShift + w.saltBase + uint64(round*d+slot)
}

// env is one in-process service instance.
type env struct {
	dir string
	st  *store.Store
	srv *server.Server
	h   http.Handler
	// base is the service's loopback URL when the clients go through
	// a real listener instead of calling the handler.
	base string
	hc   *http.Client
	// primed holds hit-replay's priming responses, per deck slot.
	primed [][]byte
}

// newEnv builds a service over a store in a fresh directory under
// root (no store when root is empty).
func newEnv(root, name string) (*env, error) {
	e := &env{}
	opts := server.Options{Addr: "127.0.0.1:0"}
	if root != "" {
		e.dir = filepath.Join(root, name)
		st, err := store.Open(e.dir)
		if err != nil {
			return nil, err
		}
		e.st, opts.Store = st, st
	}
	srv, err := server.New(opts)
	if err != nil {
		if e.st != nil {
			e.st.Close()
		}
		return nil, err
	}
	e.srv, e.h = srv, srv.Handler()
	return e, nil
}

// restart shuts the service down and brings a new one up over the
// same store, as a process restart would.
func (e *env) restart() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := e.st.Close(); err != nil {
		return err
	}
	st, err := store.Open(e.dir)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Options{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		st.Close()
		return err
	}
	e.st, e.srv, e.h, e.base = st, srv, srv.Handler(), ""
	return nil
}

// listen serves the service on a loopback port; clients made after it
// send real HTTP requests (the -transport loopback diagnostic).
func (e *env) listen(clients int) error {
	addr, err := e.srv.Start()
	if err != nil {
		return err
	}
	e.base = "http://" + addr
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}}
	return nil
}

// client returns a new client of the service.
func (e *env) client() *client {
	c := newClient(e.h)
	if e.base != "" {
		c.base, c.hc = e.base, e.hc
	}
	return c
}

// close stops the service and removes its store.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
	if e.st != nil {
		_ = e.st.Close()
		os.RemoveAll(e.dir)
	}
}

// recorder is a reusable in-memory ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, b...)
	return len(b), nil
}

// noHeader is the (read-only) request header every op sends.
var noHeader = http.Header{}

// client issues requests against one handler, reusing its buffers.
type client struct {
	h   http.Handler
	rec recorder
	rd  bytes.Reader
	buf []byte
	// base and hc, when set, send requests over loopback HTTP.
	base string
	hc   *http.Client
}

func newClient(h http.Handler) *client {
	return &client{h: h, rec: recorder{hdr: http.Header{}}}
}

// urls caches one parsed URL per path, so building a request adds no
// allocation of the client's own to the per-op counts.
var urls sync.Map // path -> *url.URL

func urlFor(path string) *url.URL {
	if u, ok := urls.Load(path); ok {
		return u.(*url.URL)
	}
	u := &url.URL{Path: path}
	urls.Store(path, u)
	return u
}

// do serves one request; the response stays in c.rec until the next.
func (c *client) do(method, path string, body []byte) {
	c.rec.code = 0
	c.rec.body = c.rec.body[:0]
	clear(c.rec.hdr)
	c.rd.Reset(body)
	if c.hc != nil {
		c.doHTTP(method, path)
		return
	}
	req := &http.Request{
		Method: method, URL: urlFor(path), RequestURI: path, Host: "perfbench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: noHeader, Body: io.NopCloser(&c.rd), ContentLength: int64(len(body)),
		RemoteAddr: "192.0.2.1:1",
	}
	c.h.ServeHTTP(&c.rec, req)
}

// doHTTP sends the request held in c.rd over loopback HTTP.
func (c *client) doHTTP(method, path string) {
	req, err := http.NewRequest(method, c.base+path, &c.rd)
	if err != nil {
		c.rec.code = http.StatusBadRequest
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rec.code = http.StatusBadGateway
		return
	}
	defer resp.Body.Close()
	c.rec.code = resp.StatusCode
	for k, v := range resp.Header {
		c.rec.hdr[k] = v
	}
	buf := bytes.NewBuffer(c.rec.body[:0])
	_, _ = buf.ReadFrom(resp.Body)
	c.rec.body = buf.Bytes()
}

// post serves a POST and returns the status, X-Cache state and body
// (valid until the next request).
func (c *client) post(path string, body []byte) (int, string, []byte) {
	c.do(http.MethodPost, path, body)
	return c.rec.code, c.rec.hdr.Get("X-Cache"), c.rec.body
}

// get serves a GET.
func (c *client) get(path string) (int, []byte) {
	c.do(http.MethodGet, path, nil)
	return c.rec.code, c.rec.body
}

// opResult is what one op leaves for the checks.
type opResult struct {
	// body is the response (the job result for durable-jobs), kept
	// for ops of the checked rounds only.
	body []byte
	// jobID and hash identify a durable job's result, for the restart
	// check (every job).
	jobID string
	hash  uint64
}

// run performs op i with client c and returns its outcome; err
// reports a failed op.
func (w *workload) run(c *client, i int, keep bool) (opResult, error) {
	t, salt := w.opAt(i)
	c.buf = t.stamp(c.buf[:0], salt)
	if w.jobs {
		return w.runJob(c, t, keep)
	}
	code, state, body := c.post(t.endpoint, c.buf)
	var out opResult
	if code != http.StatusOK {
		return out, fmt.Errorf("%s %s: status %d: %s", t.kind, t.spelling, code, trim(body))
	}
	want := "hit"
	if w.salted {
		want = "miss"
	}
	if t.kind == "batch" {
		want = "" // the batch document itself is never cached
	}
	if state != want {
		return out, fmt.Errorf("%s %s: X-Cache %q, want %q", t.kind, t.spelling, state, want)
	}
	if keep {
		out.body = append([]byte(nil), body...)
	}
	if w.hashAll {
		out.hash = hash(body)
	}
	return out, nil
}

// runJob submits c.buf as an async job, waits for it, fetches its
// result, and re-sends the request synchronously, which the store
// must serve.
func (w *workload) runJob(c *client, t *template, keep bool) (opResult, error) {
	var out opResult
	inner := c.buf
	code, _, body := c.post("/v1/jobs", submitBody(t.kind, inner))
	if code != http.StatusAccepted {
		return out, fmt.Errorf("job %s: submit status %d: %s", t.kind, code, trim(body))
	}
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return out, fmt.Errorf("job %s: submit: %v", t.kind, err)
	}
	statusPath := "/v1/jobs/" + st.ID
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			return out, fmt.Errorf("job %s %s: %s", t.kind, st.State, st.Error.Message)
		}
		time.Sleep(jobPoll)
		code, body = c.get(statusPath)
		if code != http.StatusOK {
			return out, fmt.Errorf("job %s: status %d: %s", t.kind, code, trim(body))
		}
		st = api.JobStatus{}
		if err := json.Unmarshal(body, &st); err != nil {
			return out, fmt.Errorf("job %s: status: %v", t.kind, err)
		}
	}
	code, body = c.get(statusPath + "/result")
	if code != http.StatusOK {
		return out, fmt.Errorf("job %s: result status %d: %s", t.kind, code, trim(body))
	}
	result := append([]byte(nil), body...)
	code, state, body := c.post(t.endpoint, inner)
	if code != http.StatusOK || state != "store" {
		return out, fmt.Errorf("job %s: synchronous resend: status %d, X-Cache %q", t.kind, code, state)
	}
	if !bytes.Equal(body, result) {
		return out, fmt.Errorf("job %s: synchronous resend differs from the job result", t.kind)
	}
	out.jobID, out.hash = st.ID, hash(result)
	if keep {
		out.body = result
	}
	return out, nil
}

func hash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// trim shortens a body for an error message.
func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// setup builds a fresh service and primes it: hit-replay sends its
// whole working set in both spellings, the salted workloads their
// warm-up rounds at salts no timed op uses.
func (w *workload) setup(cfg *config, name string) (e *env, err error) {
	e, err = newEnv(cfg.workDir, name)
	if err != nil {
		return nil, err
	}
	c := newClient(e.h)
	defer func() {
		if err == nil && cfg.transport == "loopback" {
			err = e.listen(cfg.clients)
		}
	}()
	if w.pairs != nil {
		e.primed = make([][]byte, len(w.deck))
		for slot, t := range w.deck {
			code, _, body := c.post(t.endpoint, t.body(0))
			if code != http.StatusOK {
				e.close()
				return nil, fmt.Errorf("priming %s %s: status %d: %s", t.kind, t.spelling, code, trim(body))
			}
			e.primed[slot] = append([]byte(nil), body...)
		}
		return e, nil
	}
	for i := 0; i < w.warmRounds*len(w.deck); i++ {
		t := w.deck[i%len(w.deck)]
		c.buf = t.stamp(c.buf[:0], warmSalt+w.saltBase+uint64(i))
		var err error
		if w.jobs {
			_, err = w.runJob(c, t, false)
		} else if code, _, body := c.post(t.endpoint, c.buf); code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, trim(body))
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %v", t.kind, err)
		}
	}
	return e, nil
}

// driveResult is the timed loop's outcome.
type driveResult struct {
	ops, failed int
	elapsed     time.Duration
	// latencies[i] is op i's latency in seconds (traced runs, which
	// drive one client, only).
	latencies []float64
	// windows are the run's equal slices, for the medians the
	// time-based metrics report.
	windows    []window
	allocBytes uint64
	allocs     uint64
	// rssMB is the resident-set high-water mark when the first
	// rssRounds rounds had completed, or at the end of a shorter run.
	rssMB float64
	// results[i] is op i's outcome (the checked rounds' ops only,
	// unless every op's result is needed).
	results []opResult
	// errs samples the first failures.
	errs []string
}

// window is one slice of the timed loop: the ops that completed in it,
// their latencies, and the process CPU time it took.
type window struct {
	dur time.Duration
	ops int
	cpu time.Duration
	lat *hist
}

// windowMetrics are the medians over a run's windows of throughput,
// latency quantiles and CPU per op. On a shared machine the median
// damps a burst of interference that overlaps a minority of the run.
func (r *driveResult) windowMetrics() (opsPerS, p50, p90, cpuPerOp float64) {
	var rate, q50, q90, cpu []float64
	for _, w := range r.windows {
		if w.ops == 0 || w.lat.n.Load() == 0 {
			continue
		}
		rate = append(rate, w.rate())
		q50 = append(q50, w.lat.quantile(0.5))
		q90 = append(q90, w.lat.quantile(0.9))
		cpu = append(cpu, w.cpu.Seconds()/float64(w.ops))
	}
	return median(rate), median(q50), median(q90), median(cpu)
}

func (w window) rate() float64 { return float64(w.ops) / w.dur.Seconds() }

// windowRates is each window's throughput, rounded to whole ops/s.
func (r *driveResult) windowRates() []int {
	var out []int
	for _, w := range r.windows {
		out = append(out, int(w.rate()))
	}
	return out
}

// windowCount cuts a run into one-second windows (at least five).
func windowCount(seconds float64) int { return max(5, int(seconds)) }

// drive runs the closed loop: cfg.clients goroutines take op indices
// in order until the run length has passed, then finish the round in
// progress, so every run attempts whole rounds. A sampler cuts the run
// length into equal windows, reading the completed-op count and the
// process CPU time at each boundary.
func drive(cfg *config, w *workload, e *env) *driveResult {
	d := len(w.deck)
	keepOps := cfg.checkRounds * d
	keepAll := w.jobs || w.hashAll
	var (
		mu       sync.Mutex
		next     int
		limit    = -1
		results  []opResult
		res      = &driveResult{}
		finished atomic.Int64
		rss      atomic.Uint64
		rssOps   = int64(w.rssRounds * d)
	)
	var ordered []float64 // hashAll: one client, op order
	fails := make([]int, cfg.clients)
	runLen := time.Duration(cfg.seconds * float64(time.Second))
	nWin := windowCount(cfg.seconds)
	winLen := runLen / time.Duration(nWin)
	lat := make([]hist, nWin)
	warmUp(cfg, w, e, min(2*time.Second, runLen/5))
	var wg sync.WaitGroup
	ms0 := readMem()
	start := time.Now()
	// Sampler: boundary k at start + k*runLen/nWin.
	type sample struct {
		at  time.Duration
		ops int64
		cpu time.Duration
	}
	samples := []sample{{0, 0, cpuTime()}}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= nWin; k++ {
			time.Sleep(time.Until(start.Add(winLen * time.Duration(k))))
			samples = append(samples, sample{time.Since(start), finished.Load(), cpuTime()})
		}
	}()
	for ci := 0; ci < cfg.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := e.client()
			for {
				mu.Lock()
				if limit < 0 && time.Since(start) >= runLen {
					// Finish the round in progress, and run at least the
					// rounds the checks read.
					limit = max((next+d-1)/d*d, keepOps)
				}
				if limit >= 0 && next >= limit {
					mu.Unlock()
					break
				}
				i := next
				next++
				mu.Unlock()
				t0 := time.Now()
				out, err := w.run(c, i, i < keepOps)
				t1 := time.Now()
				if finished.Add(1) == rssOps {
					rss.Store(math.Float64bits(peakRSSMB()))
				}
				// A latency goes to the window its op completed in; ops
				// finishing the last round after the run length are in
				// no window.
				if k := int(t1.Sub(start) / winLen); k < nWin {
					lat[k].record(t1.Sub(t0))
				}
				mu.Lock()
				if w.hashAll {
					ordered = append(ordered, t1.Sub(t0).Seconds())
				}
				if keepAll || i < keepOps {
					for len(results) <= i {
						results = append(results, opResult{})
					}
					results[i] = out
				}
				if err != nil {
					fails[ci]++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	<-sampled
	ms1 := readMem()
	res.ops = next
	res.rssMB = math.Float64frombits(rss.Load())
	if res.rssMB == 0 {
		fmt.Printf("run ended before %d rounds: peak_rss_mb read at its end\n", w.rssRounds)
		res.rssMB = peakRSSMB()
	}
	res.results = results
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.allocs = ms1.Mallocs - ms0.Mallocs
	res.windows = make([]window, nWin)
	for k := range res.windows {
		res.windows[k] = window{
			dur: samples[k+1].at - samples[k].at,
			ops: int(samples[k+1].ops - samples[k].ops),
			cpu: samples[k+1].cpu - samples[k].cpu,
			lat: &lat[k],
		}
	}
	for _, f := range fails {
		res.failed += f
	}
	res.latencies = ordered
	for _, msg := range res.errs {
		fmt.Println("failed op:", msg)
	}
	return res
}

// warmUp runs the closed loop untimed for dur over the same ops at
// salts no timed op uses, so the timed loop starts on a grown heap and
// warm caches. Its failures are reported but not counted: the timed
// ops meet the same faults.
func warmUp(cfg *config, w *workload, e *env, dur time.Duration) {
	w.saltShift = loopWarmSalt
	defer func() { w.saltShift = 0 }()
	var next atomic.Int64
	var wg sync.WaitGroup
	end := time.Now().Add(dur)
	for ci := 0; ci < cfg.clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.client()
			for time.Now().Before(end) {
				if _, err := w.run(c, int(next.Add(1)-1), false); err != nil {
					fmt.Println("failed warm-up op:", err)
				}
			}
		}()
	}
	wg.Wait()
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				var kb float64
				fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g", &kb)
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
