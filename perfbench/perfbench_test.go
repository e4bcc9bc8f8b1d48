package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"greenfpga/api"
)

// The self-test runs every workload in a short mode, checks the
// report's form against BENCHMARK.json, and feeds every output check a
// deliberately corrupted response, which it must reject — so no check
// passes vacuously.

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 7, seconds: 0.3, trace: trace, clients: 2,
		checkRounds: 2, setups: 2, workDir: t.TempDir()}
}

// signed are the per-layer differences of two timings, which read
// below zero when the difference is under the run-to-run noise.
var signed = map[string]bool{"server.overhead_us": true, "trace.overhead_us": true}

// checkForm requires exactly the declared metrics, with their units,
// finite and non-negative (end-to-end ones positive).
func checkForm(t *testing.T, rep *report, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("report correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (got.Value < 0 && !signed[m.Name]):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		case positive && got.Value == 0:
			t.Errorf("metric %s is zero", m.Name)
		}
	}
}

func TestShortRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			w, err := newWorkload(wl.Name, 7)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runTimed(shortConfig(t, wl.Name, false), w)
			if err != nil {
				t.Fatal(err)
			}
			checkForm(t, rep, spec.EndToEnd, true)
			if rep.Attempted%len(w.deck) != 0 || rep.Attempted < 2*len(w.deck) {
				t.Errorf("%d ops is not whole rounds of %d (at least two)", rep.Attempted, len(w.deck))
			}
			w, _ = newWorkload(wl.Name, 7)
			rep, err = runTraced(shortConfig(t, wl.Name, true), w)
			if err != nil {
				t.Fatal(err)
			}
			checkForm(t, rep, spec.PerLayer, false)
		})
	}
}

// TestLoopback runs the loopback-transport diagnostic briefly.
func TestLoopback(t *testing.T) {
	w, _ := newWorkload("hit-replay", 3)
	cfg := shortConfig(t, "hit-replay", false)
	cfg.transport, cfg.setups = "loopback", 1
	rep, err := runTimed(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("loopback run: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"hit-replay", "cold-mix", "mc-study", "durable-jobs"} {
		a, _ := newWorkload(name, 11)
		b, _ := newWorkload(name, 11)
		c, _ := newWorkload(name, 12)
		same, differ := true, false
		for i := 0; i < 3*len(a.deck); i++ {
			ta, sa := a.opAt(i)
			tb, sb := b.opAt(i)
			tc, sc := c.opAt(i)
			if string(ta.body(sa)) != string(tb.body(sb)) {
				same = false
			}
			if string(ta.body(sa)) != string(tc.body(sc)) {
				differ = true
			}
		}
		if !same || !differ {
			t.Errorf("%s: same seed same inputs %v, other seed other inputs %v", name, same, differ)
		}
	}
}

// mutate decodes a response into v, applies f and re-encodes it.
func mutate[T any](t *testing.T, body []byte, f func(*T)) []byte {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	f(&v)
	out, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// corruptions returns, per endpoint kind, deliberately wrong variants
// of a correct response.
func corruptions(t *testing.T, kind string, body []byte) map[string][]byte {
	out := map[string][]byte{}
	switch kind {
	case "evaluate":
		out["total"] = mutate(t, body, func(r *api.EvaluateResponse) { r.FPGA.TotalKg *= 1.001 })
		out["verdict"] = mutate(t, body, func(r *api.EvaluateResponse) {
			r.Verdict = map[string]string{"fpga": "asic", "asic": "fpga"}[r.Verdict]
		})
	case "batch":
		out["item total"] = mutate(t, body, func(r *api.BatchEvaluateResponse) { r.Results[1].Response.ASIC.TotalKg *= 0.999 })
		out["item count"] = mutate(t, body, func(r *api.BatchEvaluateResponse) { r.Results = r.Results[1:] })
	case "compare":
		out["total"] = mutate(t, body, func(r *api.CompareResponse) { r.Platforms[1].TotalKg *= 1.001 })
		out["winner"] = mutate(t, body, func(r *api.CompareResponse) {
			for _, p := range r.Platforms {
				if p.Platform != r.Winner {
					r.Winner = p.Platform
					break
				}
			}
		})
		out["ratio"] = mutate(t, body, func(r *api.CompareResponse) { r.Ratios[0].Ratio *= 1.001 })
	case "crossover":
		out["a2f+1"] = mutate(t, body, func(r *api.CrossoverResponse) {
			if r.A2FNumApps.Found {
				r.A2FNumApps.Value++
			} else {
				r.A2FNumApps = api.Solve{Found: true, Value: 30}
			}
		})
		out["a2f-1"] = mutate(t, body, func(r *api.CrossoverResponse) {
			if r.A2FNumApps.Found && r.A2FNumApps.Value > 1 {
				r.A2FNumApps.Value--
			} else {
				r.A2FNumApps = api.Solve{Found: true, Value: 0.5}
			}
		})
	case "timeline":
		out["winner"] = mutate(t, body, func(r *api.TimelineResponse) {
			for _, p := range r.Platforms {
				if p.Platform != r.Winner {
					r.Winner = p.Platform
					break
				}
			}
		})
		out["ratio"] = mutate(t, body, func(r *api.TimelineResponse) { r.Ratios[0].Ratio *= 0.999 })
	case "sweep":
		out["points"] = mutate(t, body, func(r *api.SweepResponse) { r.Points = r.Points[:len(r.Points)-1] })
		out["axis"] = mutate(t, body, func(r *api.SweepResponse) { r.Points[1].X, r.Points[2].X = r.Points[2].X, r.Points[1].X })
	case "mc":
		out["order"] = mutate(t, body, func(r *api.MonteCarloResponse) {
			r.Percentiles.P25, r.Percentiles.P75 = r.Percentiles.P75, r.Percentiles.P25
		})
		out["mean"] = mutate(t, body, func(r *api.MonteCarloResponse) { r.Mean = 2 * r.Percentiles.P95 })
	case "fleet":
		out["winner"] = mutate(t, body, func(r *api.FleetResponse) {
			row := &r.Regions[0]
			for _, p := range r.Platforms {
				if p != row.Winner {
					row.Winner = p
					break
				}
			}
		})
		out["best"] = mutate(t, body, func(r *api.FleetResponse) { r.Best.TotalKg *= 1.5 })
		out["cell"] = mutate(t, body, func(r *api.FleetResponse) { r.Regions[0].Cells[0].OperationKg *= 1.1 })
	}
	return out
}

// TestChecksRejectCorruption takes correct responses from short runs
// of the salted workloads, requires every check to pass on them, and
// to fail on each corrupted variant.
func TestChecksRejectCorruption(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range []string{"cold-mix", "mc-study"} {
		cfg := shortConfig(t, name, false)
		cfg.seconds = 0.05
		w, _ := newWorkload(name, 5)
		e, err := w.setup(cfg, "mut")
		if err != nil {
			t.Fatal(err)
		}
		res := drive(cfg, w, e)
		e.close()
		for i := 0; i < len(w.deck); i++ {
			tpl, salt := w.opAt(i)
			body := res.results[i].body
			if err := checkResponse(tpl.kind, tpl.body(salt), body); err != nil {
				t.Fatalf("%s op %d: correct response rejected: %v", tpl.kind, i, err)
			}
			if seen[tpl.kind] {
				continue
			}
			seen[tpl.kind] = true
			bad := corruptions(t, tpl.kind, body)
			if len(bad) == 0 {
				t.Errorf("no corruption for %s", tpl.kind)
			}
			for what, b := range bad {
				if err := checkResponse(tpl.kind, tpl.body(salt), b); err == nil {
					t.Errorf("%s: check accepted a corrupted %s", tpl.kind, what)
				}
			}
		}
		if name == "mc-study" {
			a, b := res.results[w.opOf(0, 0)].body, res.results[w.opOf(1, 0)].body
			if err := checkMCSeeds(a, b); err != nil {
				t.Fatalf("two seeds of one study rejected: %v", err)
			}
			if checkMCSeeds(a, a) == nil {
				t.Error("mc seed check accepted one seed twice")
			}
			far := mutate(t, b, func(r *api.MonteCarloResponse) { r.Mean += 100 * (r.StdDev + 1) })
			if checkMCSeeds(a, far) == nil {
				t.Error("mc seed check accepted means 100 deviations apart")
			}
		}
	}
	for _, kind := range []string{"evaluate", "batch", "compare", "crossover", "timeline", "sweep", "mc", "fleet"} {
		if !seen[kind] {
			t.Errorf("no %s op was checked", kind)
		}
	}
}

// TestByteChecksRejectCorruption corrupts the bytes the end-of-run
// checks compare: hit bytes against the priming miss, the two
// spellings, a job's bytes against a store-less server, and a job's
// result after the restart.
func TestByteChecksRejectCorruption(t *testing.T) {
	for _, name := range []string{"hit-replay", "cold-mix", "durable-jobs"} {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(t, name, false)
			cfg.seconds = 0.05
			w, _ := newWorkload(name, 9)
			e, err := w.setup(cfg, "bytes")
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			res := drive(cfg, w, e)
			flip := func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[len(c)/2] ^= 1
				return c
			}
			switch name {
			case "hit-replay":
				res.results[3].body = flip(res.results[3].body)
				e.primed[1] = flip(e.primed[1])
			case "cold-mix":
				// A flipped bit inside a number still parses; the model
				// checks must catch the changed value.
				for i := range res.results {
					if tpl, _ := w.opAt(i); tpl.kind == "compare" {
						res.results[i].body = mutate(t, res.results[i].body, func(r *api.CompareResponse) { r.Platforms[0].TotalKg *= 1.0001 })
						break
					}
				}
			case "durable-jobs":
				res.results[0].body = mutate(t, res.results[0].body, func(r *map[string]any) { (*r)["extra"] = 1 })
				res.results[1].hash++
			}
			failures, err := w.check(cfg, e, res)
			if err != nil {
				t.Fatal(err)
			}
			want := 2
			if name == "cold-mix" {
				want = 1
			}
			if failures < want {
				t.Errorf("%d check failures for %d corruptions", failures, want)
			}
		})
	}
}
