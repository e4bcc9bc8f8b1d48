package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"greenfpga"
	"greenfpga/api"
	"greenfpga/internal/cache"
	"greenfpga/internal/carbon"
	"greenfpga/internal/core"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/jobs"
	"greenfpga/internal/montecarlo"
	"greenfpga/internal/store"
)

// This file is the traced run. It replays a workload's inputs by
// calling each layer's public entry points in the order the server
// calls them — decode, normalize, CanonicalKey, the result cache, the
// store, resolve, the compute entry point, encode — with a span (name,
// start, end, parent) around each call, kept in memory and written out
// when the run ends. Probe spans time calls the server makes inside an
// entry point the replay cannot open up (core.Compile inside resolve,
// the carbon integrator inside compile and evaluation) by repeating
// them on the same inputs; they are excluded from the serving-path
// sums.
//
// A run makes three passes over the same ops: the handler pass drives
// Handler().ServeHTTP with one client (the untraced serving path, the
// source of server.overhead_us and the runtime figures), then the
// layered replay runs once untraced and once traced; the difference is
// the tracing overhead. All three must answer the same bytes.

// span is one timed call.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int32 // -1 for an op's root span
	op         int32 // op index; -1 for set-up
	probe      bool
	// n is the number of calls a probe span covers (per-call figures
	// divide by it).
	n int32
}

// tracer records spans; a disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (-1 when disabled).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, parent: int32(parent), op: int32(op), n: 1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// probe closes span id as a probe covering n calls.
func (t *tracer) probeEnd(id, n int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end, t.spans[id].probe, t.spans[id].n = now, true, int32(n)
	t.mu.Unlock()
}

// cachedEntry mirrors what the server's result cache holds: the
// encoded bytes plus the decoded value batch hits embed.
type cachedEntry struct {
	body []byte
	val  any
}

// replayer is one layered replay's state: the same components
// server.New assembles, driven directly.
type replayer struct {
	tr      *tracer
	ev      *api.Evaluator
	results *cache.LRU
	st      *store.Store
	dir     string
	mgr     *jobs.Manager
	// curRoot is the op root span the next job submission belongs to.
	curRoot atomic.Int64
	curOp   atomic.Int64

	gets, hits               int
	compileHits, compileMiss uint64
	draws                    int
	chunks                   atomic.Int64
	respBytes                int64
}

func newReplayer(dir string, tr *tracer, withJobs bool) (*replayer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	rp := &replayer{tr: tr, ev: api.NewEvaluator(256), results: cache.New(1024), st: st, dir: dir}
	if withJobs {
		mgr, err := jobs.New(jobs.Options{Store: st, Build: rp.builder(jobs.EvaluatorBuilder(rp.ev))})
		if err != nil {
			st.Close()
			return nil, err
		}
		rp.mgr = mgr
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = rp.mgr.Shutdown(ctx)
		cancel()
	}
	_ = rp.st.Close()
	os.RemoveAll(rp.dir)
}

// tracedStudy wraps a job's study so its chunks and finalize are
// spans of the submitting op. Between two chunks the manager
// checkpoints the first one — a store.Get that misses and a store.Put
// — so the gap is recorded as that op's store.put span.
type tracedStudy struct {
	jobs.Study
	rp         *replayer
	parent, op int
	lastEnd    int64
}

// checkpointGap records the manager's checkpoint write after the
// previous chunk.
func (s *tracedStudy) checkpointGap() {
	if s.lastEnd == 0 || !s.rp.tr.on {
		return
	}
	tr := s.rp.tr
	now := tr.now()
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name: "store.put", start: s.lastEnd, end: now,
		parent: int32(s.parent), op: int32(s.op), probe: true, n: 1})
	tr.mu.Unlock()
}

func (s *tracedStudy) ComputeChunk(ctx context.Context, i int) ([]byte, error) {
	s.checkpointGap()
	id := s.rp.tr.begin("jobs.chunk", s.parent, s.op)
	defer func() { s.rp.tr.end(id); s.lastEnd = s.rp.tr.now() }()
	s.rp.chunks.Add(1)
	return s.Study.ComputeChunk(ctx, i)
}

func (s *tracedStudy) Finalize(ctx context.Context, chunks [][]byte) ([]byte, error) {
	s.checkpointGap()
	id := s.rp.tr.begin("jobs.finalize", s.parent, s.op)
	defer s.rp.tr.end(id)
	return s.Study.Finalize(ctx, chunks)
}

// builder wraps the manager's study builder with tracedStudy. The
// manager calls it synchronously inside Submit, so curRoot names the
// submitting op.
func (rp *replayer) builder(inner jobs.Builder) jobs.Builder {
	return func(ctx context.Context, endpoint string, raw json.RawMessage) (jobs.Study, string, error) {
		s, key, err := inner(ctx, endpoint, raw)
		if err != nil {
			return nil, "", err
		}
		return &tracedStudy{Study: s, rp: rp, parent: int(rp.curRoot.Load()), op: int(rp.curOp.Load())}, key, nil
	}
}

// decode decodes a body the way the server's decodeJSON does.
func (rp *replayer) decode(root, op int, body []byte, dst any) error {
	id := rp.tr.begin("api.decode", root, op)
	defer rp.tr.end(id)
	return decodeStrict(body, dst)
}

// normalize times a request's Normalized call.
func normalize[T any](rp *replayer, root, op int, f func() T) T {
	id := rp.tr.begin("api.normalize", root, op)
	defer rp.tr.end(id)
	return f()
}

// serve replays one compute request and returns the response bytes and
// the tier that answered ("hit", "store", "miss" or "" for batches).
func (rp *replayer) serve(root, op int, kind string, body []byte) ([]byte, string, error) {
	ctx := context.Background()
	switch kind {
	case "evaluate":
		var req api.EvaluateRequest
		if err := rp.decode(root, op, body, &req); err != nil {
			return nil, "", err
		}
		norm := normalize(rp, root, op, req.Normalized)
		return rp.cached(root, op, kind, &norm, norm.Platforms, func(int) (any, error) { return rp.ev.Evaluate(ctx, &norm) })
	case "batch":
		return rp.batch(root, op, body)
	case "compare":
		var req api.CompareRequest
		if err := rp.decode(root, op, body, &req); err != nil {
			return nil, "", err
		}
		norm := normalize(rp, root, op, req.Normalized)
		return rp.cached(root, op, kind, norm, norm.Platforms, func(int) (any, error) { return rp.ev.RunCompare(ctx, norm) })
	case "crossover":
		var req api.CrossoverRequest
		if err := rp.decode(root, op, body, &req); err != nil {
			return nil, "", err
		}
		norm := normalize(rp, root, op, req.Normalized)
		return rp.cached(root, op, kind, norm, norm.Platforms, func(int) (any, error) { return rp.ev.RunCrossover(ctx, norm) })
	case "timeline":
		var req api.TimelineRequest
		if err := rp.decode(root, op, body, &req); err != nil {
			return nil, "", err
		}
		norm := normalize(rp, root, op, req.Normalized)
		return rp.cached(root, op, kind, norm, norm.Platforms, func(int) (any, error) { return rp.ev.RunTimeline(ctx, norm) })
	case "sweep":
		var req api.SweepRequest
		if err := rp.decode(root, op, body, &req); err != nil {
			return nil, "", err
		}
		norm := normalize(rp, root, op, req.Normalized)
		return rp.cached(root, op, kind, norm, norm.Platforms, func(int) (any, error) { return rp.ev.RunSweep(ctx, norm) })
	case "fleet":
		var req api.FleetRequest
		if err := rp.decode(root, op, body, &req); err != nil {
			return nil, "", err
		}
		norm := normalize(rp, root, op, req.Normalized)
		// Fleet resolves every platform sited in every region.
		var sited []api.PlatformSpec
		for _, name := range norm.Regions {
			reg, err := carbon.ByName(name)
			if err != nil {
				return nil, "", err
			}
			for _, sp := range norm.Platforms {
				sp.UseRegion = reg.Name
				if reg.Traced {
					sp.Shift = norm.Shift
				}
				sited = append(sited, sp)
			}
		}
		return rp.cached(root, op, kind, norm, sited, func(int) (any, error) { return rp.ev.RunFleet(ctx, norm) })
	case "mc":
		var req api.MonteCarloRequest
		if err := rp.decode(root, op, body, &req); err != nil {
			return nil, "", err
		}
		norm := normalize(rp, root, op, req.Normalized)
		return rp.cached(root, op, kind, norm, nil, func(compute int) (any, error) { return rp.monteCarlo(compute, op, norm) })
	}
	return nil, "", fmt.Errorf("no replay for %q", kind)
}

// cached is the server's serveCached, layer by layer: key, result
// cache, store, then resolve, compute, encode and populate both tiers.
func (rp *replayer) cached(root, op int, kind string, norm any, specs []api.PlatformSpec,
	compute func(span int) (any, error)) ([]byte, string, error) {
	endpoint := "/v1/" + kind
	id := rp.tr.begin("api.key", root, op)
	key, err := api.CanonicalKey(endpoint, norm)
	rp.tr.end(id)
	if err != nil {
		return nil, "", err
	}
	id = rp.tr.begin("cache.get", root, op)
	v, ok := rp.results.Get(key)
	rp.tr.end(id)
	rp.gets++
	if ok {
		rp.hits++
		return v.(*cachedEntry).body, "hit", nil
	}
	id = rp.tr.begin("store.get", root, op)
	body, ok, err := rp.st.Get("result:" + key)
	rp.tr.end(id)
	if err == nil && ok {
		return body, "store", nil
	}
	out, err := rp.compute(root, op, kind, specs, compute)
	if err != nil {
		return nil, "", err
	}
	id = rp.tr.begin("api.encode", root, op)
	body, err = api.EncodeJSON(out)
	rp.tr.end(id)
	if err != nil {
		return nil, "", err
	}
	id = rp.tr.begin("cache.put", root, op)
	rp.results.Put(key, &cachedEntry{body: body, val: out})
	rp.tr.end(id)
	id = rp.tr.begin("store.put", root, op)
	err = rp.st.Put("result:"+key, body)
	rp.tr.end(id)
	return body, "miss", err
}

// compute resolves the request's platforms (with the compile and
// carbon probes), then runs the compute entry point.
func (rp *replayer) compute(root, op int, kind string, specs []api.PlatformSpec,
	run func(span int) (any, error)) (any, error) {
	missed, err := rp.resolve(root, op, specs)
	if err != nil {
		return nil, err
	}
	rp.probe(root, op, specs, missed)
	id := rp.tr.begin("api.compute."+kind, root, op)
	defer rp.tr.end(id)
	return run(id)
}

// resolve resolves each spec through the evaluator's public entry
// point, recording which ones compiled (compile-cache misses).
func (rp *replayer) resolve(root, op int, specs []api.PlatformSpec) ([]bool, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	id := rp.tr.begin("api.resolve", root, op)
	defer rp.tr.end(id)
	missed := make([]bool, len(specs))
	for i, sp := range specs {
		h0, m0 := rp.ev.CompileStats()
		if _, err := rp.ev.ResolveSet([]api.PlatformSpec{sp}); err != nil {
			return nil, err
		}
		h1, m1 := rp.ev.CompileStats()
		rp.compileHits += h1 - h0
		rp.compileMiss += m1 - m0
		missed[i] = m1 > m0
	}
	return missed, nil
}

// windowCalls is how many integrator windows one carbon.window probe
// times.
const windowCalls = 64

// probe repeats, on the same inputs, the calls resolve and compute make
// below the api layer: core.Compile for each spec that compiled, the
// daily shift its compile built, and a batch of integrator windows for
// each spec sited on an hourly trace.
func (rp *replayer) probe(root, op int, specs []api.PlatformSpec, missed []bool) {
	if !rp.tr.on {
		return
	}
	for i, sp := range specs {
		if missed[i] {
			if p, err := platformFor(sp, true); err == nil {
				id := rp.tr.begin("core.compile", root, op)
				_, _ = core.Compile(p)
				rp.tr.probeEnd(id, 1)
			}
		}
		if sp.UseRegion == "" {
			continue
		}
		it, err := carbon.IntegratorFor(sp.UseRegion)
		if err != nil || it == nil {
			continue // scalar region
		}
		if missed[i] && sp.Shift == carbon.ShiftDaily {
			if p, err := platformFor(sp, true); err == nil {
				id := rp.tr.begin("carbon.shift", root, op)
				_, _ = it.Shift(p.DutyCycle * 24)
				rp.tr.probeEnd(id, 1)
			}
		}
		id := rp.tr.begin("carbon.window", root, op)
		for k := 0; k < windowCalls; k++ {
			_ = it.Window(float64(k)*97, 17520)
		}
		rp.tr.probeEnd(id, windowCalls)
	}
}

// monteCarlo runs a study through the montecarlo layer's entry points
// — the draws, then finalize — and assembles the /v1/mc response as
// the api layer does.
func (rp *replayer) monteCarlo(parent, op int, norm api.MonteCarloRequest) (any, error) {
	id := rp.tr.begin("api.resolve", parent, op)
	d, err := isoperf.ByName(norm.Domain)
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	a, b := norm.Platforms[0], norm.Platforms[1]
	nApps := norm.Workload.NApps
	cfg := greenfpga.DomainRatioStudyConfig(context.Background(), d,
		greenfpga.DeviceKind(a.Kind), greenfpga.DeviceKind(b.Kind), nApps, norm.Samples, norm.Seed)
	id = rp.tr.begin("mc.draw", parent, op)
	draws, err := montecarlo.RunRange(cfg, 0, norm.Samples)
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	rp.draws += norm.Samples
	id = rp.tr.begin("mc.finalize", parent, op)
	res, err := montecarlo.Finalize(cfg, draws)
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	wins := 0
	for _, s := range res.Samples {
		if s < 1 {
			wins++
		}
	}
	resp := &api.MonteCarloResponse{
		Domain: d.Name, Samples: norm.Samples, Seed: norm.Seed, NApps: nApps,
		Mean: res.Mean, StdDev: res.StdDev,
		Percentiles: api.Percentiles{
			P5: res.Percentile(5), P25: res.Percentile(25), P50: res.Percentile(50),
			P75: res.Percentile(75), P95: res.Percentile(95),
		},
		ProbFPGAWins: float64(wins) / float64(len(res.Samples)),
	}
	plain := func(sp api.PlatformSpec, kind string) bool {
		return sp.Kind == kind && sp.Domain == norm.Domain && sp.Device == "" && sp.Config == nil &&
			sp.DutyCycle == 0 && sp.UseRegion == "" && sp.Trace == nil && sp.Shift == "" && sp.ChipLifetimeYears == 0
	}
	if !(plain(a, "fpga") && plain(b, "asic")) {
		resp.PlatformA, resp.PlatformB = a.Kind, b.Kind
	}
	for _, s := range res.Tornado {
		resp.Tornado = append(resp.Tornado, api.TornadoEntry{Param: s.Param, Swing: s.Swing()})
	}
	return resp, nil
}

// batch is the server's batch handler, item by item.
func (rp *replayer) batch(root, op int, body []byte) ([]byte, string, error) {
	var req api.BatchEvaluateRequest
	if err := rp.decode(root, op, body, &req); err != nil {
		return nil, "", err
	}
	resp := api.BatchEvaluateResponse{Results: make([]api.BatchItem, len(req.Requests))}
	ctx := context.Background()
	for i := range req.Requests {
		item := normalize(rp, root, op, req.Requests[i].Normalized)
		id := rp.tr.begin("api.key", root, op)
		key, err := api.CanonicalKey("/v1/evaluate", &item)
		rp.tr.end(id)
		if err != nil {
			return nil, "", err
		}
		id = rp.tr.begin("cache.get", root, op)
		v, ok := rp.results.Get(key)
		rp.tr.end(id)
		rp.gets++
		if ok {
			rp.hits++
			resp.Results[i] = api.BatchItem{Response: v.(*cachedEntry).val.(*api.EvaluateResponse)}
			continue
		}
		out, err := rp.compute(root, op, "batch", item.Platforms, func(int) (any, error) { return rp.ev.Evaluate(ctx, &item) })
		if err != nil {
			return nil, "", err
		}
		id = rp.tr.begin("api.encode", root, op)
		enc, err := api.EncodeJSON(out)
		rp.tr.end(id)
		if err != nil {
			return nil, "", err
		}
		id = rp.tr.begin("cache.put", root, op)
		rp.results.Put(key, &cachedEntry{body: enc, val: out})
		rp.tr.end(id)
		resp.Results[i] = api.BatchItem{Response: out.(*api.EvaluateResponse)}
	}
	id := rp.tr.begin("api.encode", root, op)
	defer rp.tr.end(id)
	enc, err := api.EncodeJSON(resp)
	return enc, "", err
}

// job replays one durable-jobs op: decode the submission, submit it to
// the manager, wait for it, fetch its result, then resend the request
// synchronously, which the store must answer.
func (rp *replayer) job(root, op int, kind string, inner, sub []byte) ([]byte, error) {
	var req api.JobSubmitRequest
	if err := rp.decode(root, op, sub, &req); err != nil {
		return nil, err
	}
	rp.curRoot.Store(int64(root))
	rp.curOp.Store(int64(op))
	id := rp.tr.begin("jobs.submit", root, op)
	rec, err := rp.mgr.Submit(context.Background(), req.Endpoint, req.Request)
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	for rec.State != jobs.StateDone {
		if rec.State == jobs.StateFailed || rec.State == jobs.StateCanceled {
			return nil, fmt.Errorf("job %s %s: %s", kind, rec.State, rec.Error)
		}
		time.Sleep(jobPoll)
		if rec, err = rp.mgr.Status(rec.ID); err != nil {
			return nil, err
		}
	}
	id = rp.tr.begin("jobs.result", root, op)
	_, result, err := rp.mgr.Result(rec.ID)
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	resent, state, err := rp.serve(root, op, kind, inner)
	if err != nil {
		return nil, err
	}
	if state != "store" || !bytes.Equal(resent, result) {
		return nil, fmt.Errorf("job %s: synchronous resend answered from %q with different bytes", kind, state)
	}
	return result, nil
}

// submitBody wraps a request as a POST /v1/jobs body.
func submitBody(kind string, inner []byte) []byte {
	return []byte(`{"endpoint":"` + kind + `","request":` + string(inner) + `}`)
}

// replay runs ops [0, n) of w through rp, priming first for
// hit-replay, and returns each op's response hash and the pass's time.
func (rp *replayer) replay(w *workload, n int) ([]uint64, time.Duration, error) {
	if w.pairs != nil {
		for _, t := range w.deck {
			root := rp.tr.begin("op", -1, -1)
			_, _, err := rp.serve(root, -1, t.kind, t.body(0))
			rp.tr.end(root)
			if err != nil {
				return nil, 0, fmt.Errorf("priming %s: %v", t.kind, err)
			}
		}
		// Per-layer counters cover the timed ops only.
		rp.gets, rp.hits, rp.compileHits, rp.compileMiss, rp.draws = 0, 0, 0, 0, 0
	}
	hashes := make([]uint64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t, salt := w.opAt(i)
		body := t.body(salt)
		root := rp.tr.begin("op", -1, i)
		var out []byte
		var err error
		if w.jobs {
			out, err = rp.job(root, i, t.kind, body, submitBody(t.kind, body))
		} else {
			out, _, err = rp.serve(root, i, t.kind, body)
		}
		rp.tr.end(root)
		if err != nil {
			return nil, 0, fmt.Errorf("op %d (%s): %v", i, t.kind, err)
		}
		rp.respBytes += int64(len(out))
		hashes[i] = hash(out)
	}
	return hashes, time.Since(start), nil
}

// gcCPU reads the runtime's cumulative GC CPU time.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runTraced is the -trace 1 run.
func runTraced(cfg *config, w *workload) (*report, error) {
	// Pass 1: the handler, one client, whole rounds for a third of the
	// run length.
	e, err := w.setup(cfg, "handler")
	if err != nil {
		return nil, err
	}
	hcfg := *cfg
	hcfg.clients, hcfg.seconds = 1, cfg.seconds/3
	w.hashAll = true
	ms0, gc0 := readMem(), gcCPU()
	res := drive(&hcfg, w, e)
	ms1, gc1 := readMem(), gcCPU()
	checkFailures, err := w.check(cfg, e, res)
	e.close()
	if err != nil {
		return nil, err
	}
	n := res.ops
	failed := res.failed + checkFailures

	// Passes 2 and 3: the layered replay, untraced then traced.
	var hashes [2][]uint64
	var took [2]time.Duration
	tr := &tracer{t0: time.Now()}
	var rp *replayer
	for pass := 0; pass < 2; pass++ {
		tr.on = pass == 1
		r, err := newReplayer(filepath.Join(cfg.workDir, fmt.Sprintf("replay-%d", pass)), tr, w.jobs)
		if err != nil {
			return nil, err
		}
		if hashes[pass], took[pass], err = r.replay(w, n); err != nil {
			r.close()
			return nil, err
		}
		if pass == 0 {
			r.close()
		} else {
			rp = r
		}
	}
	defer rp.close()
	for i := 0; i < n; i++ {
		if res.results[i].hash != hashes[0][i] || hashes[0][i] != hashes[1][i] {
			failed++
			if failed <= 5 {
				t, _ := w.opAt(i)
				fmt.Printf("op %d (%s): handler, untraced and traced replays answered different bytes\n", i, t.kind)
			}
		}
	}
	// The run ends with a restart over the replay's store.
	total, garbage := rp.st.Size()
	id := tr.begin("store.sync", -1, -1)
	err = rp.st.Sync()
	tr.end(id)
	if err == nil {
		err = rp.st.Close()
	}
	if err != nil {
		return nil, err
	}
	id = tr.begin("store.reopen", -1, -1)
	rp.st, err = store.Open(rp.dir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if rp.st.Len() == 0 {
		failed++
		fmt.Println("store: reopened log is empty")
	}

	m := layerMetrics(tr, rp, res, n)
	m["store.kb_per_op"] = metric{float64(total) / 1024 / float64(n), "KB"}
	m["store.garbage_ratio"] = metric{ratio(float64(garbage), float64(total)), "ratio"}
	m["runtime.gc_per_kop"] = metric{float64(ms1.NumGC-ms0.NumGC) * 1000 / float64(n), "1/kop"}
	m["runtime.gc_cpu_ms_per_op"] = metric{(gc1 - gc0) * 1e3 / float64(n), "ms"}
	m["trace.overhead_us"] = metric{float64(took[1]-took[0]) / 1e3 / float64(n), "us"}
	printSpans(tr)
	path, err := writeSpans(cfg, w, tr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d ops per pass; handler %.2fs, replay %.2fs untraced, %.2fs traced; %d spans written to %s\n",
		w.name, n, res.elapsed.Seconds(), took[0].Seconds(), took[1].Seconds(), len(tr.spans), path)
	return &report{Correct: failed == res.failed, Attempted: n, Failed: failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer figures from the traced pass's
// spans of timed ops (set-up spans only appear in the trace file).
func layerMetrics(tr *tracer, rp *replayer, res *driveResult, n int) map[string]metric {
	dur := map[string]float64{} // ns
	count := map[string]float64{}
	calls := map[string]float64{}
	servingSum := make([]float64, n) // top-level serving-path span time per op
	jobTime := make([]float64, n)
	jobCompute := make([]float64, n)
	for _, s := range tr.spans {
		if s.op < 0 && s.name != "store.sync" && s.name != "store.reopen" {
			continue // set-up
		}
		d := float64(s.end - s.start)
		dur[s.name] += d
		count[s.name]++
		calls[s.name] += float64(s.n)
		if s.op < 0 {
			continue
		}
		if s.parent >= 0 && tr.spans[s.parent].parent < 0 && !s.probe && !strings.HasPrefix(s.name, "jobs.chunk") && s.name != "jobs.finalize" {
			servingSum[s.op] += d
		}
		switch s.name {
		case "op":
			jobTime[s.op] = d
		case "jobs.chunk", "jobs.finalize":
			jobCompute[s.op] += d
		}
	}
	mean := func(name string, scale float64) float64 {
		if count[name] == 0 {
			return 0
		}
		return dur[name] / count[name] / scale
	}
	perCall := func(name string, scale float64) float64 {
		if calls[name] == 0 {
			return 0
		}
		return dur[name] / calls[name] / scale
	}
	var overhead float64
	for i := 0; i < n; i++ {
		overhead += res.latencies[i]*1e9 - servingSum[i]
	}
	m := map[string]metric{
		"server.overhead_us":     {overhead / float64(n) / 1e3, "us"},
		"api.decode_us":          {mean("api.decode", 1e3), "us"},
		"api.normalize_us":       {mean("api.normalize", 1e3), "us"},
		"api.key_us":             {mean("api.key", 1e3), "us"},
		"api.resolve_us":         {mean("api.resolve", 1e3), "us"},
		"api.compile_miss_ratio": {ratio(float64(rp.compileMiss), float64(rp.compileHits+rp.compileMiss)), "ratio"},
		"api.encode_us":          {mean("api.encode", 1e3), "us"},
		"api.response_kb":        {float64(rp.respBytes) / 1024 / float64(n), "KB"},
		"cache.get_us":           {mean("cache.get", 1e3), "us"},
		"cache.hit_ratio":        {ratio(float64(rp.hits), float64(rp.gets)), "ratio"},
		"cache.put_us":           {mean("cache.put", 1e3), "us"},
		"core.compile_us":        {mean("core.compile", 1e3), "us"},
		"carbon.window_ns":       {perCall("carbon.window", 1), "ns"},
		"carbon.shift_us":        {mean("carbon.shift", 1e3), "us"},
		"mc.draw_us":             {ratio(dur["mc.draw"]/1e3, float64(rp.draws)), "us"},
		"mc.finalize_ms":         {mean("mc.finalize", 1e6), "ms"},
		"store.put_us":           {mean("store.put", 1e3), "us"},
		"store.get_us":           {mean("store.get", 1e3), "us"},
		"store.sync_ms":          {mean("store.sync", 1e6), "ms"},
		"store.reopen_ms":        {mean("store.reopen", 1e6), "ms"},
		"jobs.submit_us":         {mean("jobs.submit", 1e3), "us"},
		"jobs.chunk_ms":          {mean("jobs.chunk", 1e6), "ms"},
		"jobs.finalize_us":       {mean("jobs.finalize", 1e3), "us"},
		"jobs.chunks_per_op":     {0, "count"},
		"jobs.overhead_ms":       {0, "ms"},
	}
	for _, kind := range []string{"evaluate", "batch", "compare", "crossover", "timeline", "sweep", "fleet", "mc"} {
		m["api.compute_us."+kind] = metric{mean("api.compute."+kind, 1e3), "us"}
	}
	if rp.mgr != nil {
		var over float64
		for i := 0; i < n; i++ {
			over += jobTime[i] - jobCompute[i]
		}
		m["jobs.chunks_per_op"] = metric{float64(rp.chunks.Load()) / float64(n), "count"}
		m["jobs.overhead_ms"] = metric{over / float64(n) / 1e6, "ms"}
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{0, v.Unit}
		}
	}
	return m
}

// printSpans prints the traced pass's per-layer self times, counts and
// shares of the traced time.
func printSpans(tr *tracer) {
	children := make([]float64, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			children[s.parent] += float64(s.end - s.start)
		}
	}
	type row struct {
		name        string
		n           int
		self, total float64
	}
	rows := map[string]*row{}
	var all float64
	for i, s := range tr.spans {
		if s.op < 0 && s.name == "op" {
			continue
		}
		r := rows[s.name]
		if r == nil {
			r = &row{name: s.name}
			rows[s.name] = r
		}
		d := float64(s.end - s.start)
		r.n++
		r.total += d
		r.self += d - children[i]
		if s.name == "op" {
			all += d
		}
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Printf("%-24s %9s %12s %12s %8s\n", "span", "count", "self ms", "self us/call", "share")
	for _, r := range list {
		fmt.Printf("%-24s %9d %12.2f %12.2f %7.1f%%\n", r.name, r.n, r.self/1e6, r.self/1e3/float64(r.n), 100*r.self/all)
	}
}

// maxWrittenSpans bounds the trace file.
const maxWrittenSpans = 200_000

// writeSpans writes the traced pass's spans as JSON lines next to the
// benchmark's work directory and returns the file's path.
func writeSpans(cfg *config, w *workload, tr *tracer) (string, error) {
	path := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	for i, s := range tr.spans {
		if i >= maxWrittenSpans {
			break
		}
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d,"probe":%t,"calls":%d}`+"\n",
			i, s.name, s.start, s.end, s.parent, s.op, s.probe, s.n)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
