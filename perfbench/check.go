package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"greenfpga"
	"greenfpga/api"
	"greenfpga/internal/carbon"
	gfconfig "greenfpga/internal/config"
	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/montecarlo"
	"greenfpga/internal/units"
)

// This file holds the output checks. They run untimed at the end of
// every workload, and every disagreement counts as a failed op. The
// reference figures come from computations made apart from the serving
// path — platforms rebuilt from the domain calibrations, the device
// catalog and the config documents, evaluated uncompiled with
// core.Evaluate — or from properties the method must have; never from
// stored copies of earlier output.

// relTol is the agreement the model checks require.
const relTol = 1e-9

// mcSigmas is how many standard errors two seeds' MC means may differ.
const mcSigmas = 6

// decodeStrict decodes a request body as the server does: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// checkResponse checks one response against its request with the
// model and property checks of its endpoint.
func checkResponse(kind string, req, resp []byte) error {
	switch kind {
	case "evaluate":
		var r api.EvaluateRequest
		if err := decodeStrict(req, &r); err != nil {
			return err
		}
		var out api.EvaluateResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		return checkEvaluate(r.Normalized(), &out)
	case "batch":
		var r api.BatchEvaluateRequest
		if err := decodeStrict(req, &r); err != nil {
			return err
		}
		var out api.BatchEvaluateResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		if len(out.Results) != len(r.Requests) {
			return fmt.Errorf("batch: %d results for %d requests", len(out.Results), len(r.Requests))
		}
		for i, item := range out.Results {
			if item.Error != nil || item.Response == nil {
				return fmt.Errorf("batch item %d: no response", i)
			}
			if err := checkEvaluate(r.Requests[i].Normalized(), item.Response); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	case "compare":
		var r api.CompareRequest
		if err := decodeStrict(req, &r); err != nil {
			return err
		}
		var out api.CompareResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		return checkCompare(r.Normalized(), &out)
	case "crossover":
		var r api.CrossoverRequest
		if err := decodeStrict(req, &r); err != nil {
			return err
		}
		var out api.CrossoverResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		return checkCrossover(r.Normalized(), &out)
	case "timeline":
		var out api.TimelineResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		totals := make([]float64, len(out.Platforms))
		names := make([]string, len(out.Platforms))
		for i, p := range out.Platforms {
			totals[i], names[i] = p.TotalKg, p.Platform
		}
		return checkWinnerRatios("timeline", names, totals, out.Winner, out.Ratios)
	case "sweep":
		var r api.SweepRequest
		if err := decodeStrict(req, &r); err != nil {
			return err
		}
		var out api.SweepResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		return checkSweep(r.Normalized(), &out)
	case "mc":
		var r api.MonteCarloRequest
		if err := decodeStrict(req, &r); err != nil {
			return err
		}
		var out api.MonteCarloResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		return checkMonteCarlo(r.Normalized(), &out)
	case "fleet":
		var out api.FleetResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		return checkFleet(&out)
	}
	return fmt.Errorf("no check for %q", kind)
}

// platformFor rebuilds a spec's platform from the calibration sources:
// the domain set, the device catalog with the documented catalog
// deployment knobs (duty cycle 0.3, PUE 1.2, 500 design engineers over
// 2 years), or the config document, plus the spec's overrides. Traced
// regions carry their trace, so evaluation integrates it through a
// freshly built integrator rather than the shared cached one — unless
// shared is set, which sites the platform on the region's cached
// integrator the way the service does (for the traced run's compile
// probes).
func platformFor(sp api.PlatformSpec, shared bool) (core.Platform, error) {
	var p core.Platform
	switch {
	case sp.Kind != "":
		d, err := isoperf.ByName(sp.Domain)
		if err != nil {
			return p, err
		}
		set, err := d.Set()
		if err != nil {
			return p, err
		}
		if p, err = set.Member(device.Kind(sp.Kind)); err != nil {
			return p, err
		}
	case sp.Device != "":
		spec, err := device.ByName(sp.Device)
		if err != nil {
			return p, err
		}
		p = core.Platform{Spec: spec, DutyCycle: 0.3, PUE: 1.2, DesignEngineers: 500, DesignDuration: units.YearsOf(2)}
	case sp.Config != nil:
		var err error
		if p, err = sp.Config.ToPlatform(); err != nil {
			return p, err
		}
	default:
		return p, fmt.Errorf("empty platform spec")
	}
	if sp.DutyCycle != 0 {
		p.DutyCycle = sp.DutyCycle
	}
	if sp.UseRegion != "" {
		reg, err := carbon.ByName(sp.UseRegion)
		if err != nil {
			return p, err
		}
		p.UseMix, p.UseTrace, p.UseIntegrator = reg.Mix, nil, nil
		switch {
		case reg.Traced && shared:
			if p.UseIntegrator, err = carbon.IntegratorFor(reg.Name); err != nil {
				return p, err
			}
		case reg.Traced:
			if p.UseTrace, err = reg.Trace(); err != nil {
				return p, err
			}
		}
	}
	if sp.Shift != "" {
		p.UseShift = sp.Shift
	}
	if sp.ChipLifetimeYears != 0 {
		p.ChipLifetime = units.YearsOf(sp.ChipLifetimeYears)
	}
	return p, nil
}

// totalOf evaluates a spec on a scenario with the uncompiled model.
func totalOf(sp api.PlatformSpec, s core.Scenario) (float64, error) {
	p, err := platformFor(sp, false)
	if err != nil {
		return 0, err
	}
	a, err := core.Evaluate(p, s)
	if err != nil {
		return 0, err
	}
	return a.Total().Kilograms(), nil
}

func close9(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-300)
}

// scenarioOf materializes a uniform or apps workload.
func scenarioOf(name string, w *api.WorkloadSpec) (core.Scenario, error) {
	if len(w.Apps) > 0 {
		doc := gfconfig.Scenario{Name: name, Apps: w.Apps, StrictEq2: w.StrictEq2}
		return doc.ToScenario()
	}
	return core.Uniform(name, w.NApps, units.YearsOf(w.LifetimeYears), w.Volume, w.SizeGates), nil
}

func checkEvaluate(r api.EvaluateRequest, out *api.EvaluateResponse) error {
	s, err := scenarioOf(r.Name, r.Workload)
	if err != nil {
		return err
	}
	sides := map[string]*api.PlatformResult{"fpga": out.FPGA, "asic": out.ASIC}
	for _, sp := range r.Platforms {
		p, err := platformFor(sp, false)
		if err != nil {
			return err
		}
		side := sides[string(p.Spec.Kind)]
		if side == nil {
			return fmt.Errorf("evaluate: no %s side", p.Spec.Kind)
		}
		want, err := totalOf(sp, s)
		if err != nil {
			return err
		}
		if !close9(side.TotalKg, want) {
			return fmt.Errorf("evaluate %s total %g, uncompiled model %g", p.Spec.Kind, side.TotalKg, want)
		}
	}
	if out.FPGA != nil && out.ASIC != nil {
		if out.Ratio == nil || !close9(*out.Ratio, out.FPGA.TotalKg/out.ASIC.TotalKg) {
			return fmt.Errorf("evaluate ratio is not fpga/asic")
		}
		want := "asic"
		if out.FPGA.TotalKg < out.ASIC.TotalKg {
			want = "fpga"
		}
		if out.Verdict != want {
			return fmt.Errorf("evaluate verdict %q, want %q", out.Verdict, want)
		}
	}
	return nil
}

// checkWinnerRatios checks that the winner is the argmin of totals and
// each pairwise ratio the quotient of the reported totals.
func checkWinnerRatios(what string, names []string, totals []float64, winner string, ratios []api.PairRatio) error {
	if len(totals) == 0 {
		return fmt.Errorf("%s: no platforms", what)
	}
	best := 0
	for i, t := range totals {
		if t < totals[best] {
			best = i
		}
	}
	if winner != names[best] {
		return fmt.Errorf("%s winner %q, argmin is %q", what, winner, names[best])
	}
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	if want := len(names) * (len(names) - 1) / 2; len(ratios) != want {
		return fmt.Errorf("%s: %d ratios, want %d", what, len(ratios), want)
	}
	for _, pr := range ratios {
		a, okA := idx[pr.A]
		b, okB := idx[pr.B]
		if !okA || !okB || !close9(pr.Ratio, totals[a]/totals[b]) {
			return fmt.Errorf("%s ratio %s/%s = %g is not the quotient of the totals", what, pr.A, pr.B, pr.Ratio)
		}
	}
	return nil
}

func checkCompare(r api.CompareRequest, out *api.CompareResponse) error {
	if len(out.Platforms) != len(r.Platforms) {
		return fmt.Errorf("compare: %d platforms for %d specs", len(out.Platforms), len(r.Platforms))
	}
	w := r.Workload
	s := core.Uniform("compare", w.NApps, units.YearsOf(w.LifetimeYears), w.Volume, w.SizeGates)
	names := make([]string, len(out.Platforms))
	totals := make([]float64, len(out.Platforms))
	for i, sp := range r.Platforms {
		want, err := totalOf(sp, s)
		if err != nil {
			return err
		}
		if !close9(out.Platforms[i].TotalKg, want) {
			return fmt.Errorf("compare %s total %g, uncompiled model %g", out.Platforms[i].Platform, out.Platforms[i].TotalKg, want)
		}
		names[i], totals[i] = out.Platforms[i].Platform, out.Platforms[i].TotalKg
	}
	return checkWinnerRatios("compare", names, totals, out.Winner, out.Ratios)
}

// checkCrossover checks the A2F crossing property: platform A is below
// platform B at N and not at N-1 (or, when no crossover is reported,
// not below at the search ceiling).
func checkCrossover(r api.CrossoverRequest, out *api.CrossoverResponse) error {
	w := r.Workload
	diff := func(n int) (float64, error) {
		s := core.Uniform("crossover", n, units.YearsOf(w.LifetimeYears), w.Volume, w.SizeGates)
		a, err := totalOf(r.Platforms[0], s)
		if err != nil {
			return 0, err
		}
		b, err := totalOf(r.Platforms[1], s)
		return a - b, err
	}
	if !out.A2FNumApps.Found {
		d, err := diff(r.MaxApps)
		if err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("crossover: none reported, but A is below B at %d apps", r.MaxApps)
		}
		return nil
	}
	n := int(out.A2FNumApps.Value)
	if float64(n) != out.A2FNumApps.Value || n < 1 || n > r.MaxApps {
		return fmt.Errorf("crossover: A2F %g is not an application count in [1, %d]", out.A2FNumApps.Value, r.MaxApps)
	}
	d, err := diff(n)
	if err != nil {
		return err
	}
	if d >= 0 {
		return fmt.Errorf("crossover: A is not below B at the reported N=%d", n)
	}
	if n > 1 {
		if d, err = diff(n - 1); err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("crossover: A is already below B at N-1=%d", n-1)
		}
	}
	return nil
}

// checkSweep checks the point count and a strictly increasing axis.
func checkSweep(r api.SweepRequest, out *api.SweepResponse) error {
	if len(out.Points) != r.Points {
		return fmt.Errorf("sweep: %d points, requested %d", len(out.Points), r.Points)
	}
	for i := 1; i < len(out.Points); i++ {
		if !(out.Points[i].X > out.Points[i-1].X) {
			return fmt.Errorf("sweep: axis not increasing at point %d", i)
		}
	}
	if len(out.Points) > 0 && (out.Points[0].X < r.From*(1-relTol) || out.Points[len(out.Points)-1].X > r.To*(1+relTol)) {
		return fmt.Errorf("sweep: axis outside [%g, %g]", r.From, r.To)
	}
	return nil
}

// checkMonteCarlo checks the percentiles are ordered and the mean lies
// within the draws' range, which independent draws through the
// montecarlo package (sub-seeded by index, so the same samples)
// provide.
func checkMonteCarlo(r api.MonteCarloRequest, out *api.MonteCarloResponse) error {
	p := out.Percentiles
	if !(p.P5 <= p.P25 && p.P25 <= p.P50 && p.P50 <= p.P75 && p.P75 <= p.P95) {
		return fmt.Errorf("mc: percentiles out of order: %+v", p)
	}
	if out.Samples != r.Samples || out.StdDev < 0 || out.ProbFPGAWins < 0 || out.ProbFPGAWins > 1 {
		return fmt.Errorf("mc: inconsistent summary (samples %d, std %g, p %g)", out.Samples, out.StdDev, out.ProbFPGAWins)
	}
	d, err := isoperf.ByName(r.Domain)
	if err != nil {
		return err
	}
	cfg := greenfpga.DomainRatioStudyConfig(context.Background(), d,
		greenfpga.DeviceKind(r.Platforms[0].Kind), greenfpga.DeviceKind(r.Platforms[1].Kind),
		r.Workload.NApps, r.Samples, r.Seed)
	draws, err := montecarlo.RunRange(cfg, 0, r.Samples)
	if err != nil {
		return err
	}
	sort.Float64s(draws)
	lo, hi := draws[0], draws[len(draws)-1]
	if out.Mean < lo || out.Mean > hi || p.P5 < lo || p.P95 > hi {
		return fmt.Errorf("mc: mean %g or percentiles outside the draws' range [%g, %g]", out.Mean, lo, hi)
	}
	return nil
}

// checkMCSeeds checks that two seeds of one study agree within
// mcSigmas standard errors.
func checkMCSeeds(a, b []byte) error {
	var x, y api.MonteCarloResponse
	if err := json.Unmarshal(a, &x); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &y); err != nil {
		return err
	}
	if x.Seed == y.Seed {
		return fmt.Errorf("mc seeds: both responses have seed %d", x.Seed)
	}
	se := math.Sqrt(x.StdDev*x.StdDev/float64(x.Samples) + y.StdDev*y.StdDev/float64(y.Samples))
	if math.Abs(x.Mean-y.Mean) > mcSigmas*se {
		return fmt.Errorf("mc seeds %d and %d: means %g and %g differ by more than %d standard errors (%g)",
			x.Seed, y.Seed, x.Mean, y.Mean, mcSigmas, se)
	}
	return nil
}

// checkFleet checks each region's winner, each platform's best region
// and the overall best placement are the argmins of the matrix.
func checkFleet(out *api.FleetResponse) error {
	if len(out.Regions) == 0 || len(out.Platforms) == 0 {
		return fmt.Errorf("fleet: empty matrix")
	}
	best := api.FleetBest{TotalKg: math.Inf(1)}
	byPlatform := make([]api.FleetBest, len(out.Platforms))
	for i := range byPlatform {
		byPlatform[i].TotalKg = math.Inf(1)
	}
	for _, row := range out.Regions {
		if len(row.Cells) != len(out.Platforms) {
			return fmt.Errorf("fleet %s: %d cells for %d platforms", row.Region, len(row.Cells), len(out.Platforms))
		}
		win := 0
		for i, c := range row.Cells {
			if !close9(c.TotalKg, c.OperationKg+c.EmbodiedKg) {
				return fmt.Errorf("fleet %s: total is not operation plus embodied", row.Region)
			}
			if c.TotalKg < row.Cells[win].TotalKg {
				win = i
			}
			if c.TotalKg < byPlatform[i].TotalKg {
				byPlatform[i] = api.FleetBest{Region: row.Region, Platform: out.Platforms[i], TotalKg: c.TotalKg}
			}
			if c.TotalKg < best.TotalKg {
				best = api.FleetBest{Region: row.Region, Platform: out.Platforms[i], TotalKg: c.TotalKg}
			}
		}
		if row.Winner != out.Platforms[win] {
			return fmt.Errorf("fleet %s: winner %q, argmin is %q", row.Region, row.Winner, out.Platforms[win])
		}
	}
	if out.Best != best {
		return fmt.Errorf("fleet: best %+v, argmin is %+v", out.Best, best)
	}
	for i := range byPlatform {
		if i >= len(out.BestByPlatform) || out.BestByPlatform[i] != byPlatform[i] {
			return fmt.Errorf("fleet: best region of %s is not the argmin", out.Platforms[i])
		}
	}
	return nil
}

// check runs a workload's end-of-run checks and returns the number of
// failed ops they found.
func (w *workload) check(cfg *config, e *env, res *driveResult) (int, error) {
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		if failures <= 5 {
			fmt.Printf("check failed: "+format+"\n", args...)
		}
	}
	d := len(w.deck)
	checked := min(cfg.checkRounds*d, len(res.results))
	// Store-less reference service for the byte-identity checks.
	ref, err := newEnv("", "")
	if err != nil {
		return 0, err
	}
	defer ref.close()
	rc := newClient(ref.h)
	switch {
	case w.pairs != nil:
		// Both spellings answer the priming miss's bytes, and every
		// timed hit answers them again.
		for slot := 0; slot+1 < d; slot += 2 {
			if !bytes.Equal(e.primed[slot], e.primed[slot+1]) {
				fail("%s: legacy and spec spellings answer different bytes", w.deck[slot].kind)
			}
			if err := checkResponse(w.deck[slot].kind, w.deck[slot].body(0), e.primed[slot]); err != nil {
				fail("%s: %v", w.deck[slot].kind, err)
			}
			if w.deck[slot].kind == "mc" {
				if _, _, body := rc.post(w.deck[slot].endpoint, w.deck[slot].body(0)); !bytes.Equal(body, e.primed[slot]) {
					fail("mc: one seed sent twice answered different bytes")
				}
			}
		}
		for i := 0; i < checked; i++ {
			t, _ := w.opAt(i)
			slot := w.slotOf(i)
			if !bytes.Equal(res.results[i].body, e.primed[slot]) {
				fail("%s %s: hit bytes differ from the priming miss", t.kind, t.spelling)
			}
		}
	default:
		for i := 0; i < checked; i++ {
			t, salt := w.opAt(i)
			body := res.results[i].body
			if body == nil {
				continue // the op itself failed and is already counted
			}
			if err := checkResponse(t.kind, t.body(salt), body); err != nil {
				fail("%s op %d: %v", t.kind, i, err)
			}
			if t.kind == "mc" {
				// An MC seed sent again must repeat its bytes.
				code, _, ref := rc.post(t.endpoint, t.body(salt))
				if code != http.StatusOK || !bytes.Equal(ref, body) {
					fail("mc op %d: bytes differ from a fresh store-less server's", i)
				}
			}
		}
		if w.deck[0].kind == "mc" {
			// Round 0 and round 1 run each study under two seeds.
			for i := 0; i < d && d+i < checked; i++ {
				a, b := res.results[w.opOf(0, i)].body, res.results[w.opOf(1, i)].body
				if a != nil && b != nil {
					if err := checkMCSeeds(a, b); err != nil {
						fail("%v", err)
					}
				}
			}
		}
	}
	if w.jobs {
		// Every job's bytes must equal a store-less server's
		// synchronous answer (compared by hash past the kept rounds).
		for i, r := range res.results {
			if r.jobID == "" {
				continue
			}
			t, salt := w.opAt(i)
			code, _, ref := rc.post(t.endpoint, t.body(salt))
			if code != http.StatusOK || hash(ref) != r.hash || (r.body != nil && !bytes.Equal(ref, r.body)) {
				fail("job op %d (%s): bytes differ from a fresh store-less server's", i, t.kind)
			}
		}
		// Restart over the same store: every job's result must come
		// back byte for byte.
		if err := e.restart(); err != nil {
			return failures, err
		}
		c := newClient(e.h)
		for i, r := range res.results {
			if r.jobID == "" {
				continue
			}
			code, body := c.get("/v1/jobs/" + r.jobID + "/result")
			if code != http.StatusOK || hash(body) != r.hash {
				fail("job op %d: result after restart differs", i)
			}
		}
	}
	return failures, nil
}

// slotOf is op i's deck slot.
func (w *workload) slotOf(i int) int {
	d := len(w.deck)
	return w.perms[(i/d)%len(w.perms)][i%d]
}

// opOf is the op index of deck slot slot in round round.
func (w *workload) opOf(round, slot int) int {
	d := len(w.deck)
	perm := w.perms[round%len(w.perms)]
	for pos, s := range perm {
		if s == slot {
			return round*d + pos
		}
	}
	return -1
}
