package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"greenfpga/api"
	"greenfpga/internal/carbon"
	"greenfpga/internal/isoperf"
)

// This file generates the seeded request streams. A workload is a deck
// of request templates; a run replays the deck in whole rounds, each
// round in a seeded order. A template is a JSON body with zero or more
// salt sites — numbers whose value is a function of the op's salt — so
// every op of a salted workload is a fresh content address while the
// cost structure of a round stays fixed across seeds. Bodies are
// stamped into a per-client buffer without allocating, so generating
// an op inside the timed loop costs a copy, not a marshal.

// site is one salted number inside a template body.
type site struct {
	// integer sites (the Monte-Carlo seed) take the salt itself;
	// float sites take base * (1 + salt*1e-12), which moves every
	// result by far less than a part per million.
	integer bool
	base    float64
}

// template is one request body with its salt sites cut out.
type template struct {
	// endpoint is the request path ("/v1/compare").
	endpoint string
	// kind names the compute endpoint ("compare", "batch", ...).
	kind string
	// spelling is "legacy" or "spec" (hit-replay pairs both).
	spelling string
	// parts are the literal body segments around the sites.
	parts [][]byte
	sites []site
}

// stamp appends the body for salt to dst.
func (t *template) stamp(dst []byte, salt uint64) []byte {
	dst = append(dst, t.parts[0]...)
	for i, s := range t.sites {
		if s.integer {
			dst = strconv.AppendUint(dst, salt, 10)
		} else {
			dst = strconv.AppendFloat(dst, s.base*(1+float64(salt)*1e-12), 'g', -1, 64)
		}
		dst = append(dst, t.parts[i+1]...)
	}
	return dst
}

// body returns a fresh copy of the body for salt.
func (t *template) body(salt uint64) []byte { return t.stamp(nil, salt) }

// Sentinels mark salt sites in a marshaled body. They are far outside
// any value a request carries, so a textual search finds exactly the
// sites.
const (
	sentinelFloat0 = 7.125e299
	sentinelInt    = 8_765_432_109_876
)

// sentinel returns the k-th float sentinel.
func sentinel(k int) float64 { return sentinelFloat0 + float64(k)*1e297 }

// newTemplate marshals v and cuts it at the sentinel values: bases[k]
// is the base value of float sentinel k; integer marks a body that
// also carries the integer sentinel (at most once).
func newTemplate(endpoint, kind, spelling string, v any, bases []float64, integer bool) *template {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	t := &template{endpoint: endpoint, kind: kind, spelling: spelling}
	type cut struct {
		at, n int
		s     site
	}
	var cuts []cut
	for k, b := range bases {
		lit := []byte(strconv.FormatFloat(sentinel(k), 'g', -1, 64))
		at := bytes.Index(raw, lit)
		if at < 0 {
			panic(fmt.Sprintf("template %s: float site %d not found in %s", kind, k, raw))
		}
		cuts = append(cuts, cut{at, len(lit), site{base: b}})
	}
	if integer {
		lit := []byte(strconv.FormatInt(sentinelInt, 10))
		at := bytes.Index(raw, lit)
		if at < 0 {
			panic(fmt.Sprintf("template %s: integer site not found in %s", kind, raw))
		}
		cuts = append(cuts, cut{at, len(lit), site{integer: true}})
	}
	// Order the cuts by position.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j].at < cuts[j-1].at; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	prev := 0
	for _, c := range cuts {
		t.parts = append(t.parts, append([]byte(nil), raw[prev:c.at]...))
		t.sites = append(t.sites, c.s)
		prev = c.at + c.n
	}
	t.parts = append(t.parts, append([]byte(nil), raw[prev:]...))
	return t
}

// fixed is a template without salt sites.
func fixed(endpoint, kind, spelling string, v any) *template {
	return newTemplate(endpoint, kind, spelling, v, nil, false)
}

// salter hands out float sentinels in order while a request is built,
// recording each site's base value.
type salter struct{ bases []float64 }

func (s *salter) salt(base float64) float64 {
	s.bases = append(s.bases, base)
	return sentinel(len(s.bases) - 1)
}

// Model vocabulary shared by the generators.
var (
	domainNames = []string{"DNN", "ImgProc", "Crypto"}
	tracedNames = []string{"oregon", "virginia", "california", "texas"}
	fpgaDevices = []string{"IndustryFPGA1", "IndustryFPGA2"}
	asicDevices = []string{"IndustryASIC1", "IndustryASIC2"}
	scalarNames []string
)

func init() {
	for _, r := range carbon.Regions() {
		if !r.Traced {
			scalarNames = append(scalarNames, r.Name)
		}
	}
}

// domainKinds lists a domain set's member kinds in set order.
func domainKinds(domain string) []string {
	d, err := isoperf.ByName(domain)
	if err != nil {
		panic(err)
	}
	set, err := d.Set()
	if err != nil {
		panic(err)
	}
	out := make([]string, len(set))
	for i, p := range set {
		out[i] = string(p.Spec.Kind)
	}
	return out
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// pickRegions returns traced hourly-signal regions and scalar
// regions, chosen by r, in registry order.
func pickRegions(r *rand.Rand, traced, scalar int) []string {
	chosen := map[string]bool{}
	for _, i := range r.Perm(len(tracedNames))[:traced] {
		chosen[tracedNames[i]] = true
	}
	for _, i := range r.Perm(len(scalarNames))[:scalar] {
		chosen[scalarNames[i]] = true
	}
	var out []string
	for _, name := range carbon.Names() {
		if chosen[name] {
			out = append(out, name)
		}
	}
	return out
}

// The generators below fix every count that sets a request's cost —
// platforms, apps, deployments, regions, points, samples — by the
// request's position in the deck, and let the seed choose the values
// (domains, kinds, devices, regions, numbers). Every seed's round then
// costs about the same, so runs with different seeds measure the same
// work.

// inlineConfig is an inline platform document of the given kind.
func inlineConfig(r *rand.Rand, kind string, die float64) *api.PlatformConfig {
	c := &api.PlatformConfig{
		Name: fmt.Sprintf("inline-%s-%d", kind, 100+r.IntN(900)), Kind: kind, Node: pick(r, []string{"7nm", "10nm", "14nm"}),
		DieAreaMM2: die, PeakPowerW: float64(100 + r.IntN(150)),
		DutyCycle: pick(r, []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45}), PUE: pick(r, []float64{1.1, 1.15, 1.2, 1.25}),
		DesignEngineers: float64(300 + 50*r.IntN(8)), DesignYears: 2,
	}
	if kind == "fpga" {
		c.CapacityGates = float64(20+r.IntN(30)) * 1e6
	}
	return c
}

// catalogConfig is a config-arm document naming a catalog device.
func catalogConfig(r *rand.Rand, device string) *api.PlatformConfig {
	return &api.PlatformConfig{
		Device: device, DutyCycle: 0.3, PUE: 1.2,
		DesignEngineers: float64(400 + 50*r.IntN(6)), DesignYears: 2,
		ChipLifetimeYears: pick(r, []float64{0, 0, 8, 15}),
	}
}

// specKind enumerates the platform selector shapes of cold-mix.
type specKind int

const (
	specPlain  specKind = iota // {domain, kind}
	specDuty                   // kind + salted duty-cycle override (always compiles)
	specDevice                 // catalog device
	specInline                 // inline config with a salted die area (always compiles)
	specTraced                 // kind sited in a traced region
	specShift                  // kind sited in a traced region, daily shift
	specChip                   // kind + chip-lifetime cap
)

// platformSpec builds one selector of shape k for a platform of the
// given kind ("fpga", "asic", "gpu", "cpu") in domain. Salted values
// go through s.
func platformSpec(r *rand.Rand, s *salter, k specKind, domain, kind string) api.PlatformSpec {
	switch k {
	case specDuty:
		return api.PlatformSpec{Domain: domain, Kind: kind, DutyCycle: s.salt(pick(r, []float64{0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}))}
	case specDevice:
		switch kind {
		case "fpga":
			return api.PlatformSpec{Device: pick(r, fpgaDevices)}
		case "asic":
			return api.PlatformSpec{Device: pick(r, asicDevices)}
		case "gpu":
			return api.PlatformSpec{Device: "IndustryGPU1"}
		default:
			return api.PlatformSpec{Device: "IndustryCPU1"}
		}
	case specInline:
		c := inlineConfig(r, kind, 0)
		c.DieAreaMM2 = s.salt(float64(200 + 20*r.IntN(20)))
		return api.PlatformSpec{Config: c}
	case specTraced:
		return api.PlatformSpec{Domain: domain, Kind: kind, UseRegion: pick(r, tracedNames)}
	case specShift:
		return api.PlatformSpec{Domain: domain, Kind: kind, UseRegion: pick(r, tracedNames), Shift: carbon.ShiftDaily}
	case specChip:
		return api.PlatformSpec{Domain: domain, Kind: kind, ChipLifetimeYears: pick(r, []float64{1.5, 3, 8})}
	}
	return api.PlatformSpec{Domain: domain, Kind: kind}
}

// Inline configs only model ASICs and FPGAs.
func inlineable(kind string) bool { return kind == "fpga" || kind == "asic" }

// uniform is a uniform workload arm of napps applications.
func uniform(r *rand.Rand, napps int) api.WorkloadSpec {
	return api.WorkloadSpec{
		NApps:         napps,
		LifetimeYears: pick(r, []float64{0.5, 1, 1.5, 2, 3, 4}),
		Volume:        pick(r, []float64{1e4, 1e5, 5e5, 1e6, 2e6}),
	}
}

// apps is an explicit application list.
func apps(r *rand.Rand, n int) []api.AppConfig {
	out := make([]api.AppConfig, n)
	for i := range out {
		out[i] = api.AppConfig{
			Name:          fmt.Sprintf("app-%d", i+1),
			LifetimeYears: pick(r, []float64{0.5, 1, 2, 3}),
			Volume:        pick(r, []float64{1e4, 1e5, 1e6}),
		}
	}
	return out
}

// deployments expands the staggered generator exactly as request
// normalization does, so the explicit spelling names the same
// timeline.
func deployments(n int, interval, lifetime, volume float64) []api.TimelineDeployment {
	out := make([]api.TimelineDeployment, n)
	for i := range out {
		out[i] = api.TimelineDeployment{
			Name:          fmt.Sprintf("app%d", i+1),
			StartYears:    float64(i) * interval,
			LifetimeYears: lifetime,
			Volume:        volume,
		}
	}
	return out
}

// kindSpecs spells domain members as explicit specs.
func kindSpecs(domain string, kinds ...string) []api.PlatformSpec {
	out := make([]api.PlatformSpec, len(kinds))
	for i, k := range kinds {
		out[i] = api.PlatformSpec{Domain: domain, Kind: k}
	}
	return out
}

// obj is an ordered-by-marshal JSON object for legacy bodies, which
// use fields the typed spec structs would spell differently (bare kind
// strings, the scenario document).
type obj = map[string]any

// pair is one working-set request in its legacy and spec spellings.
type pair struct{ legacy, spec *template }

// hitWorkingSet builds hit-replay's working set: distinct requests
// over every compute endpoint, each in both spellings.
func hitWorkingSet(seed uint64) []pair {
	r := rand.New(rand.NewPCG(seed, 0x6869742d7265706c))
	var set []pair
	add := func(endpoint, kind string, legacy, spec any) {
		set = append(set, pair{fixed(endpoint, kind, "legacy", legacy), fixed(endpoint, kind, "spec", spec)})
	}
	evalPair := func(i int) (obj, api.EvaluateRequest) {
		var f, a *api.PlatformConfig
		if i%2 == 0 {
			f, a = catalogConfig(r, pick(r, fpgaDevices)), catalogConfig(r, pick(r, asicDevices))
		} else {
			f, a = inlineConfig(r, "fpga", float64(300+20*r.IntN(15))), inlineConfig(r, "asic", float64(150+20*r.IntN(15)))
		}
		name := fmt.Sprintf("hit-eval-%d", i)
		as := apps(r, 1+i%4)
		legacy := obj{"scenario": api.ScenarioConfig{Name: name, FPGA: f, ASIC: a, Apps: as}}
		spec := api.EvaluateRequest{Name: name,
			Platforms: []api.PlatformSpec{{Config: f}, {Config: a}},
			Workload:  &api.WorkloadSpec{Apps: as}}
		return legacy, spec
	}
	for i := 0; i < 24; i++ {
		l, s := evalPair(i)
		add("/v1/evaluate", "evaluate", l, s)
	}
	for i := 0; i < 8; i++ {
		var li []any
		var si []api.EvaluateRequest
		for j := 0; j < 3; j++ {
			l, s := evalPair(100 + 3*i + j)
			li = append(li, l)
			si = append(si, s)
		}
		add("/v1/evaluate/batch", "batch", obj{"requests": li}, obj{"requests": si})
	}
	for i := 0; i < 24; i++ {
		d := pick(r, domainNames)
		kinds := domainKinds(d)
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		kinds = kinds[:2+i%3]
		w := uniform(r, 1+i%12)
		add("/v1/compare", "compare",
			obj{"domain": d, "platforms": kinds, "napps": w.NApps, "lifetime_years": w.LifetimeYears, "volume": w.Volume},
			obj{"platforms": kindSpecs(d, kinds...), "workload": w})
	}
	for i := 0; i < 24; i++ {
		d := pick(r, domainNames)
		kinds := domainKinds(d)
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		w := uniform(r, 1+i%12)
		maxApps := 30
		add("/v1/crossover", "crossover",
			obj{"domain": d, "platform_a": kinds[0], "platform_b": kinds[1],
				"napps": w.NApps, "lifetime_years": w.LifetimeYears, "volume": w.Volume, "max_apps": maxApps},
			obj{"platforms": kindSpecs(d, kinds[0], kinds[1]), "workload": w, "max_apps": maxApps})
	}
	for i := 0; i < 16; i++ {
		d := pick(r, domainNames)
		n, interval := 3+i%4, pick(r, []float64{0.25, 0.5, 1})
		life, vol := pick(r, []float64{1, 2, 3}), pick(r, []float64{1e5, 1e6})
		sizing := []string{"shared", "dedicated"}[i%2]
		chip := []float64{0, 2, 4}[i%3]
		legacy := obj{"domain": d, "napps": n, "interval_years": interval, "lifetime_years": life,
			"volume": vol, "sizing": sizing}
		specs := kindSpecs(d, domainKinds(d)...)
		if chip > 0 {
			legacy["chip_lifetime_years"] = chip
			for j := range specs {
				specs[j].ChipLifetimeYears = chip
			}
		}
		add("/v1/timeline", "timeline", legacy, obj{"platforms": specs,
			"workload": api.WorkloadSpec{Deployments: deployments(n, interval, life, vol), Sizing: sizing}})
	}
	for i := 0; i < 16; i++ {
		d := pick(r, domainNames)
		legacy := obj{"domain": d}
		spec := obj{"platforms": kindSpecs(d, "fpga", "asic"),
			"workload": api.WorkloadSpec{NApps: 5, LifetimeYears: 2, Volume: 1e6}}
		switch i % 3 {
		case 0:
			legacy["axis"], spec["axis"] = "napps", "napps"
			legacy["to"], spec["to"] = 32, 32
		case 1:
			legacy["axis"], spec["axis"] = "lifetime", "lifetime"
			from := pick(r, []float64{0.1, 0.2, 0.3, 0.4})
			legacy["from"], spec["from"] = from, from
			legacy["points"], spec["points"] = 40, 40
		default:
			legacy["axis"], spec["axis"] = "volume", "volume"
			legacy["points"], spec["points"] = 20, 20
		}
		add("/v1/sweep", "sweep", legacy, spec)
	}
	for i := 0; i < 8; i++ {
		d := pick(r, domainNames)
		samples, seed, napps := 128, int64(1+r.IntN(1<<20)), 3+i%6
		legacy := obj{"domain": d, "samples": samples, "seed": seed, "napps": napps}
		spec := obj{"samples": samples, "seed": seed, "workload": api.WorkloadSpec{NApps: napps},
			"platforms": kindSpecs(d, "fpga", "asic")}
		if i%2 == 1 {
			kinds := domainKinds(d)
			r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			legacy["platforms"] = kinds[:2]
			spec["platforms"] = kindSpecs(d, kinds[:2]...)
		}
		add("/v1/mc", "mc", legacy, spec)
	}
	for i := 0; i < 16; i++ {
		d := pick(r, domainNames)
		regions := pickRegions(r, 1+i%2, 2+i%3)
		legacy := obj{"domain": d, "regions": regions}
		spec := obj{"platforms": kindSpecs(d, "fpga", "asic"), "regions": regions,
			"workload": api.WorkloadSpec{NApps: 5, LifetimeYears: 2, Volume: 1e6}}
		if i%2 == 0 {
			legacy["shift"], spec["shift"] = carbon.ShiftDaily, carbon.ShiftDaily
		}
		add("/v1/fleet", "fleet", legacy, spec)
	}
	return set
}

// coldDeck builds cold-mix's round: salted requests over every compute
// endpoint but mc, half of their platform selectors plain and half
// spread over the six override shapes, in a fixed cycle.
func coldDeck(seed uint64) []*template {
	r := rand.New(rand.NewPCG(seed, 0x636f6c642d6d6978))
	cycle := []specKind{specPlain, specDuty, specPlain, specDevice, specPlain, specInline,
		specPlain, specTraced, specPlain, specShift, specPlain, specChip}
	nextShape := 0
	shape := func(kind string) specKind {
		k := cycle[nextShape%len(cycle)]
		nextShape++
		if k == specInline && !inlineable(kind) {
			return specPlain
		}
		return k
	}
	var deck []*template
	add := func(endpoint, kind string, s *salter, v any) {
		deck = append(deck, newTemplate(endpoint, kind, "spec", v, s.bases, false))
	}
	evalReq := func(s *salter, i int) any {
		d := pick(r, domainNames)
		if i%5 == 4 {
			// The legacy scenario document, salted in its first app.
			as := apps(r, 1+i%3)
			as[0].Volume = s.salt(as[0].Volume)
			return obj{"scenario": api.ScenarioConfig{Name: fmt.Sprintf("cold-eval-%d", i),
				FPGA: inlineConfig(r, "fpga", float64(300+20*r.IntN(15))),
				ASIC: catalogConfig(r, pick(r, asicDevices)), Apps: as}}
		}
		f := platformSpec(r, s, shape("fpga"), d, "fpga")
		a := platformSpec(r, s, shape("asic"), d, "asic")
		w := uniform(r, 1+i%12)
		w.Volume = s.salt(w.Volume)
		return api.EvaluateRequest{Name: fmt.Sprintf("cold-eval-%d", i), Platforms: []api.PlatformSpec{f, a}, Workload: &w}
	}
	// setSpecs picks n members of domain d's set, rotating the start by
	// slot so every kind appears in every round.
	setSpecs := func(s *salter, d string, n, slot int) []api.PlatformSpec {
		kinds := domainKinds(d)
		out := make([]api.PlatformSpec, n)
		for j := range out {
			k := kinds[(slot+j)%len(kinds)]
			out[j] = platformSpec(r, s, shape(k), d, k)
		}
		return out
	}
	for i := 0; i < 10; i++ {
		s := &salter{}
		add("/v1/evaluate", "evaluate", s, evalReq(s, i))
	}
	for i := 0; i < 2; i++ {
		s := &salter{}
		var items []any
		for j := 0; j < 4; j++ {
			items = append(items, evalReq(s, 10+4*i+j))
		}
		add("/v1/evaluate/batch", "batch", s, obj{"requests": items})
	}
	for i := 0; i < 5; i++ {
		s := &salter{}
		w := uniform(r, 1+(3*i)%12)
		w.Volume = s.salt(w.Volume)
		add("/v1/compare", "compare", s, api.CompareRequest{Platforms: setSpecs(s, pick(r, domainNames), 2+i%3, i), Workload: &w})
	}
	for i := 0; i < 5; i++ {
		s := &salter{}
		w := uniform(r, 1+(5*i)%12)
		w.Volume = s.salt(w.Volume)
		add("/v1/crossover", "crossover", s, api.CrossoverRequest{Platforms: setSpecs(s, pick(r, domainNames), 2, i), Workload: &w, MaxApps: 30})
	}
	for i := 0; i < 3; i++ {
		s := &salter{}
		deps := deployments(3+2*i, pick(r, []float64{0.25, 0.5, 1}), pick(r, []float64{1, 2, 3}), 1e6)
		deps[0].Volume = s.salt(deps[0].Volume)
		add("/v1/timeline", "timeline", s, api.TimelineRequest{Platforms: setSpecs(s, pick(r, domainNames), 2+i, i),
			Workload: &api.WorkloadSpec{Deployments: deps, Sizing: []string{"shared", "dedicated"}[i%2]}})
	}
	for i := 0; i < 3; i++ {
		s := &salter{}
		w := api.WorkloadSpec{NApps: 5, LifetimeYears: 2, Volume: s.salt(1e6)}
		req := api.SweepRequest{Platforms: setSpecs(s, pick(r, domainNames), 2, i), Workload: &w}
		if i == 0 {
			req.Axis, req.To = "napps", 36
		} else {
			req.Axis, req.Points = "lifetime", 48
		}
		add("/v1/sweep", "sweep", s, req)
	}
	for i := 0; i < 4; i++ {
		s := &salter{}
		d := pick(r, domainNames)
		specs := make([]api.PlatformSpec, 2)
		for j, k := range []string{"fpga", "asic"} {
			// Fleet sites each platform itself: no region, trace or
			// shift on the specs.
			switch sh := shape(k); sh {
			case specDuty, specDevice, specChip, specPlain:
				specs[j] = platformSpec(r, s, sh, d, k)
			default:
				specs[j] = api.PlatformSpec{Domain: d, Kind: k}
			}
		}
		w := uniform(r, 5)
		w.Volume = s.salt(w.Volume)
		req := api.FleetRequest{Platforms: specs, Regions: pickRegions(r, 2, 3), Workload: &w}
		if i%2 == 0 {
			req.Shift = carbon.ShiftDaily
		}
		add("/v1/fleet", "fleet", s, req)
	}
	return deck
}

// mcDeck builds mc-study's round: salted-seed studies over a seeded
// mix of domains, platform pairs and application counts, with a fixed
// share of each sample count.
func mcDeck(seed uint64) []*template {
	r := rand.New(rand.NewPCG(seed, 0x6d632d7374756479))
	var deck []*template
	for i := 0; i < 24; i++ {
		d := pick(r, domainNames)
		kinds := domainKinds(d)
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		samples := []int{64, 128, 256}[i%3]
		napps := 1 + (i*5)%12
		var v any
		if i%2 == 0 {
			v = obj{"domain": d, "platforms": kinds[:2], "samples": samples, "seed": sentinelInt, "napps": napps}
		} else {
			v = api.MonteCarloRequest{Platforms: kindSpecs(d, kinds[0], kinds[1]), Samples: samples,
				Seed: sentinelInt, Workload: &api.WorkloadSpec{NApps: napps}}
		}
		deck = append(deck, newTemplate("/v1/mc", "mc", "spec", v, nil, true))
	}
	return deck
}

// jobsDeck builds durable-jobs' round: one multi-chunk sweep, and
// per-region fleet studies and single-chunk compare and timeline
// requests, each submitted through POST /v1/jobs. A sweep job writes
// about ten times the log of the others (its response and two chunk
// checkpoints), and every job ends with a store sync, so the round
// holds one sweep to keep the log, and the sync's share of a job,
// modest.
func jobsDeck(seed uint64) []*template {
	r := rand.New(rand.NewPCG(seed, 0x6a6f62732d647572))
	var deck []*template
	add := func(kind string, s *salter, v any) {
		deck = append(deck, newTemplate("/v1/"+kind, kind, "spec", v, s.bases, false))
	}
	{
		// 1100 napps points: two chunks of at most 1024.
		s := &salter{}
		w := api.WorkloadSpec{NApps: 5, LifetimeYears: pick(r, []float64{1, 2, 3}), Volume: s.salt(1e6)}
		add("sweep", s, api.SweepRequest{Platforms: kindSpecs(pick(r, domainNames), "fpga", "asic"), Axis: "napps",
			To: 1100, Workload: &w})
	}
	for i := 0; i < 5; i++ {
		s := &salter{}
		w := uniform(r, 5)
		w.Volume = s.salt(w.Volume)
		req := api.FleetRequest{Platforms: kindSpecs(pick(r, domainNames), "fpga", "asic"), Regions: pickRegions(r, 3, 3), Workload: &w}
		if i%2 == 1 {
			req.Shift = carbon.ShiftDaily
		}
		add("fleet", s, req)
	}
	for i := 0; i < 5; i++ {
		s := &salter{}
		d := pick(r, domainNames)
		w := uniform(r, 2+2*i)
		w.Volume = s.salt(w.Volume)
		add("compare", s, api.CompareRequest{Platforms: kindSpecs(d, domainKinds(d)...), Workload: &w})
	}
	for i := 0; i < 5; i++ {
		s := &salter{}
		d := pick(r, domainNames)
		deps := deployments(2+i, 0.5, 2, 1e6)
		deps[0].Volume = s.salt(deps[0].Volume)
		add("timeline", s, api.TimelineRequest{Platforms: kindSpecs(d, domainKinds(d)...),
			Workload: &api.WorkloadSpec{Deployments: deps, Sizing: "shared"}})
	}
	return deck
}
