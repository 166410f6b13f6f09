package main

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/capture"
	"appvsweb/internal/core"
	"appvsweb/internal/device"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/services"
	"appvsweb/internal/vclock"
)

// The campaign workload is what a researcher runs: the paper's full
// 50-service × {android, ios} × {app, web} matrix at scale 0.05, default
// options, through core.Runner.RunCampaignContext at the runner's default
// parallelism (closed loop). Interception TLS, device sessions and the
// per-experiment matcher compile dominate it; detection is almost free.
const campaignScale = 0.05

// Reference digests of the campaign's artifacts. Per-experiment byte
// totals are not reproducible: the simulated trackers number their
// cookies per ecosystem, so which experiment's cookies carry one digit
// more depends on how experiments interleave. The six artifacts that read
// byte totals (byteArtifacts) therefore vary by a few bytes between
// campaigns, and the rendered report does whenever a figure 1c value
// rounds the other way. The other seventeen must match byte for byte, and
// the byte totals themselves are checked per experiment against
// campaignBytes, within the cookie bound of bytesTolerance.
const (
	// campaignStableDigest is the SHA-256 over "id digest" lines of the
	// artifacts outside byteArtifacts, in analysis.ArtifactIDs order.
	campaignStableDigest = "aac35e4c7af91a50713a13998dc56347c39eb892eec145abddc40b2bd262dc2c"
	// campaignReportDigest is the SHA-256 of the "report" artifact as most
	// campaigns render it; a mismatch is reported, not failed.
	campaignReportDigest = "0ea1cb50c849a2ae25cc4c6379b5176b1091a0d3bc00b04f2cb37fcf009bf169"
)

// byteArtifacts are the artifacts that read per-experiment byte totals.
var byteArtifacts = map[string]bool{
	"report": true, "report.md": true, "stats.json": true,
	"figures": true, "figure-1c.csv": true, "figure-1c.svg": true,
}

// campaignBytesJSON is the reference the byte totals of every campaign
// are held to: per experiment, keyed by core.ExperimentKey, the middle of
// the TotalBytes eight seeded campaigns measured.
//
//go:embed campaign_bytes.json
var campaignBytesJSON []byte

var campaignBytes = func() map[string]int64 {
	var m map[string]int64
	if err := json.Unmarshal(campaignBytesJSON, &m); err != nil {
		panic(err)
	}
	return m
}()

// bytesTolerance is how far an experiment's TotalBytes may lie from any
// other campaign's, given the tracker cookies alone. A tracker cookie
// only reaches an A&A flow: its Set-Cookie in the response, and the jar's
// copy echoed in the request, so at most two cookie values per A&A flow.
// A cookie value's counter is at most the number of flows the campaign
// captured, so two campaigns' values differ by at most digits(flows) − 1
// digits. Anything beyond that is a flow dropped, counted twice or
// measured differently.
func bytesTolerance(aaFlows, campaignFlows int) int64 {
	return int64(2 * aaFlows * (len(strconv.Itoa(campaignFlows)) - 1))
}

// probeServices is how many services a probe pass of the traced campaign
// measures (four experiments each).
const probeServices = 5

// campaignCatalog is the service catalog in a seeded order. The order
// decides which experiments run side by side; what each one measures, and
// every artifact that reads no byte totals, stays the same.
func campaignCatalog(seed int64) []*services.Spec {
	cat := services.Catalog()
	rand.New(rand.NewSource(seed)).Shuffle(len(cat), func(i, j int) { cat[i], cat[j] = cat[j], cat[i] })
	return cat
}

// startCampaign is the campaign's set-up: the simulated ecosystem and the
// runner (which mints the interception CA).
func startCampaign(catalog []*services.Spec, opts core.Options) (*services.Ecosystem, *core.Runner, error) {
	eco, err := services.Start(catalog)
	if err != nil {
		return nil, nil, fmt.Errorf("start ecosystem: %w", err)
	}
	runner, err := core.NewRunner(eco, opts)
	if err != nil {
		eco.Close()
		return nil, nil, fmt.Errorf("runner: %w", err)
	}
	return eco, runner, nil
}

func runCampaign(cfg config, m mode) (*outcome, error) {
	if m != untraced {
		return traceCampaign(cfg, m)
	}
	o := &outcome{}
	catalog := campaignCatalog(cfg.seed)
	var mu sync.Mutex
	opts := core.Options{
		Scale:   campaignScale,
		Metrics: obs.New(),
		OnProgress: func(ev core.ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			o.attempted++
			if ev.Err != nil {
				o.failed++
				return
			}
			o.latencies = append(o.latencies, ev.Elapsed)
		},
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		s := time.Now()
		eco, _, err := startCampaign(catalog, opts)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(s))
		eco.Close()
	}
	// Each campaign gets a fresh ecosystem, as each avwrun invocation
	// does: the simulated trackers keep counters across campaigns, so a
	// reused ecosystem sends slightly longer cookies and changes the
	// report's byte totals.
	var datasets []*core.Dataset
	start := time.Now()
	for len(datasets) == 0 || time.Since(start) < cfg.seconds {
		eco, runner, err := startCampaign(catalog, opts)
		if err != nil {
			return nil, err
		}
		meter := startMeter()
		ds, err := runner.RunCampaignContext(context.Background())
		o.read.add(meter.stop())
		eco.Close()
		if err != nil {
			o.check(false, "campaign %d: %v", len(datasets)+1, err)
			break
		}
		datasets = append(datasets, ds)
	}

	for i, ds := range datasets {
		for _, r := range ds.Results {
			o.bytes += r.TotalBytes
		}
		o.incorrect += checkCampaign(o, i+1, ds)
	}
	return o, nil
}

// checkCampaign verifies one campaign's dataset: every experiment present,
// none failed, every artifact that reads no byte totals identical to the
// reference, and every experiment's byte total within bytesTolerance of
// the reference. It returns how many experiments completed with output
// the checks reject: all of them when the campaign as a whole is wrong. A
// report that differs from the reference is a warning.
func checkCampaign(o *outcome, n int, ds *core.Dataset) int64 {
	want := len(services.Catalog()) * len(services.AllCells())
	all := int64(len(ds.Results))
	ok := len(ds.Results) == want
	o.check(ok, "campaign %d: %d results, want %d", n, len(ds.Results), want)
	o.check(len(ds.Meta.Failures) == 0, "campaign %d: %d failed experiments", n, len(ds.Meta.Failures))
	report, stable, err := campaignDigests(ds)
	o.check(err == nil && stable == campaignStableDigest,
		"campaign %d: digest of the artifacts that read no byte totals %s (err %v), want %s", n, stable, err, campaignStableDigest)
	if err == nil && report != campaignReportDigest {
		o.warn("campaign %d: report digest %s, reference %s: per-experiment byte totals depend on experiment interleaving", n, report, campaignReportDigest)
	}
	if !ok || err != nil || stable != campaignStableDigest {
		return all
	}
	flows := 0
	for _, r := range ds.Results {
		flows += r.TotalFlows + r.BackgroundFlows
	}
	var bad int64
	for _, r := range ds.Results {
		key := core.ExperimentKey(r.Service, r.CellKey())
		ref, known := campaignBytes[key]
		tol := bytesTolerance(r.AAFlows, flows)
		if !known || r.TotalBytes < ref-tol || r.TotalBytes > ref+tol {
			bad++
			o.check(false, "campaign %d: %s: %d bytes, reference %d ± %d", n, key, r.TotalBytes, ref, tol)
		}
	}
	return bad
}

// campaignDigests returns the SHA-256 of the report artifact and the
// digest over the artifacts outside byteArtifacts.
func campaignDigests(ds *core.Dataset) (report, stable string, err error) {
	h := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.New()}).Register("campaign", ds)
	all := sha256.New()
	for _, id := range analysis.ArtifactIDs() {
		art, err := h.Artifact(context.Background(), id)
		if err != nil {
			return "", "", err
		}
		sum := sha256.Sum256(art.Bytes)
		if id == "report" {
			report = hex.EncodeToString(sum[:])
		}
		if !byteArtifacts[id] {
			fmt.Fprintf(all, "%s %x\n", id, sum)
		}
	}
	return report, hex.EncodeToString(all.Sum(nil)), nil
}

// expCounts is the part of an experiment's result the traced run must
// reproduce exactly.
type expCounts struct {
	excluded bool
	flows    int
	leaks    int
}

// campaignJob is one experiment of the matrix with its global index, the
// seed of its virtual-clock base (as in core.Runner).
type campaignJob struct {
	spec *services.Spec
	cell services.Cell
	idx  int
}

// expTrace is the span ledger of one traced experiment.
type expTrace struct {
	key                      string
	counts                   expCounts
	wall                     time.Duration
	start, session, compile  time.Duration
	drain, analyze, close    time.Duration
	drained                  bool
	requests, failedRequests int
	tunnels, tunnelFailures  int64
	err                      error
}

func (t *expTrace) spans() time.Duration {
	return t.start + t.session + t.compile + t.drain + t.analyze + t.close
}

func traceCampaign(cfg config, m mode) (*outcome, error) {
	o := &outcome{}
	catalog := campaignCatalog(cfg.seed)
	selected := map[string]bool{}
	for i, s := range catalog {
		if m == traced || i < probeServices {
			selected[s.Key] = true
		}
	}
	opts := core.Options{
		Scale:       campaignScale,
		Metrics:     obs.New(),
		Experiments: func(service string, _ services.Cell) bool { return selected[service] },
	}

	start := time.Now()
	eco, err := services.Start(catalog)
	if err != nil {
		return nil, fmt.Errorf("start ecosystem: %w", err)
	}
	defer eco.Close()
	o.layer("services.start_ms", "ms", msOf(time.Since(start)))
	runner, err := core.NewRunner(eco, opts)
	if err != nil {
		return nil, err
	}

	// Untraced reference run over the same experiments.
	ustart := time.Now()
	ds, err := runner.RunCampaignContext(context.Background())
	if err != nil {
		return nil, fmt.Errorf("untraced campaign: %w", err)
	}
	untracedWall := time.Since(ustart)
	if m == traced {
		checkCampaign(o, 1, ds)
	}
	want := make(map[string]expCounts, len(ds.Results))
	for _, r := range ds.Results {
		want[core.ExperimentKey(r.Service, r.CellKey())] = expCounts{r.Excluded, r.TotalFlows, len(r.Leaks)}
	}

	start = time.Now()
	ca, err := proxy.NewCA("Meddle Interception CA")
	if err != nil {
		return nil, err
	}
	o.layer("proxy.new_ca_ms", "ms", msOf(time.Since(start)))
	trust := ca.Pool()
	trust.AppendCertsFromPEM(eco.Internet.CA.CertPEM())

	var jobs []campaignJob
	idx := 0
	for _, spec := range catalog {
		for _, cell := range services.AllCells() {
			if selected[spec.Key] {
				jobs = append(jobs, campaignJob{spec, cell, idx})
			}
			idx++
		}
	}
	reg := obs.New()
	parallelism := runtime.NumCPU() // the runner's default, capped at 8 there too
	if parallelism > 8 {
		parallelism = 8
	}
	traces := make([]*expTrace, len(jobs))
	tstart := time.Now()
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, j campaignJob) {
			defer wg.Done()
			defer func() { <-sem }()
			traces[i] = traceExperiment(eco, ca, trust, reg, j)
		}(i, j)
	}
	wg.Wait()
	tracedWall := time.Since(tstart)

	var sessions, starts, closes, compiles, drains, analyses []time.Duration
	var wall, unaccounted time.Duration
	var requests, failedRequests, drainTimeouts int
	var tunnels, tunnelFailures int64
	for _, t := range traces {
		o.attempted++
		if t.err != nil {
			o.failed++
			o.check(false, "traced experiment %s: %v", t.key, t.err)
			continue
		}
		if w, ok := want[t.key]; !ok || w != t.counts {
			o.incorrect++
			o.check(false, "traced experiment %s: flows/leaks %+v, untraced run %+v", t.key, t.counts, w)
		}
		wall += t.wall
		unaccounted += t.wall - t.spans()
		starts = append(starts, t.start)
		closes = append(closes, t.close)
		sessions = append(sessions, t.session)
		requests += t.requests
		failedRequests += t.failedRequests
		tunnels += t.tunnels
		tunnelFailures += t.tunnelFailures
		if t.counts.excluded {
			continue // pinned: no compile, drain or analysis, as in the runner
		}
		compiles = append(compiles, t.compile)
		drains = append(drains, t.drain)
		analyses = append(analyses, t.analyze)
		if !t.drained {
			drainTimeouts++
		}
	}
	o.check(len(traces) == len(want), "traced %d experiments, untraced run has %d", len(traces), len(want))

	o.layer("proxy.start_ms", "ms", median(ms(starts)))
	o.layer("proxy.close_ms", "ms", median(ms(closes)))
	o.layer("device.session_ms", "ms", median(ms(sessions)))
	o.layer("device.requests", "count", float64(requests))
	o.layer("device.failed_requests", "count", float64(failedRequests))
	o.layer("proxy.tunnels", "count", float64(tunnels))
	o.layer("proxy.tunnel_failures", "count", float64(tunnelFailures))
	o.layer("pii.compile_ms", "ms", median(ms(compiles)))
	o.layer("pii.compile_alloc_kb", "kB", compileAllocKB(catalog[:probeServices]))
	o.layer("proxy.drain_ms", "ms", median(ms(drains)))
	o.layer("proxy.drain_timeouts", "count", float64(drainTimeouts))
	o.layer("core.analyze_ms", "ms", median(ms(analyses)))
	o.layer("ledger.unaccounted_ratio", "ratio", ratio(float64(unaccounted), float64(wall)))
	// Positive: the traced pass ran slower than RunCampaignContext over
	// the same experiments.
	o.layer("trace_overhead_ratio", "ratio", ratio(float64(tracedWall), float64(untracedWall))-1)
	return o, nil
}

// traceExperiment runs one experiment exactly as core.Runner does, from
// public calls, with a span around each: proxy.New+Start →
// device.RunSessionContext → pii.NewMatcher → Proxy.Drain →
// core.AnalyzeFlows → Proxy.Close.
func traceExperiment(eco *services.Ecosystem, ca *proxy.CA, trust *x509.CertPool, reg *obs.Registry, j campaignJob) *expTrace {
	t := &expTrace{key: core.ExperimentKey(j.spec.Key, j.cell)}
	begin := time.Now()
	defer func() { t.wall = time.Since(begin) }()

	base := time.Date(2016, 4, 1, 9, 0, 0, 0, time.UTC).Add(time.Duration(j.idx) * 10 * time.Minute)
	clock := vclock.New(base)
	sink := capture.NewMemSink()
	clientID := fmt.Sprintf("%s/%s/%s", j.spec.Key, j.cell.OS, j.cell.Medium)
	dev := device.NewDevice(j.cell.OS, deviceIndex(j.spec.Key))
	identity := dev.Identity(device.NewAccount(j.spec.Key))

	s := time.Now()
	px, err := proxy.New(proxy.Config{
		CA:         ca,
		Resolver:   eco.Internet.Resolver,
		OriginPool: eco.Internet.CA.Pool(),
		Sink:       sink,
		Now:        clock.Now,
		ClientID:   clientID,
		Metrics:    reg,
	})
	if err == nil {
		err = px.Start()
	}
	t.start = time.Since(s)
	if err != nil {
		t.err = err
		return t
	}
	defer func() {
		st := px.Stats()
		t.tunnels, t.tunnelFailures = st.Tunnels, st.TunnelFailures
		s := time.Now()
		px.Close()
		t.close = time.Since(s)
	}()

	pin := ""
	if j.spec.PinsAndroid && j.cell.OS == services.Android && j.cell.Medium == services.App {
		if pin, err = eco.Internet.CA.LeafFingerprint(j.spec.Domain()); err != nil {
			t.err = err
			return t
		}
	}
	s = time.Now()
	sres, err := device.RunSessionContext(context.Background(), device.SessionConfig{
		Device:   dev,
		Service:  j.spec,
		Medium:   j.cell.Medium,
		ProxyURL: px.URL(),
		Trust:    trust,
		Pin:      pin,
		Clock:    clock,
		Duration: 4 * time.Minute,
		Scale:    campaignScale,
	})
	t.session = time.Since(s)
	if errors.Is(err, device.ErrPinned) {
		t.counts.excluded = true
		return t
	}
	if err != nil {
		t.err = err
		return t
	}
	t.requests, t.failedRequests = sres.Requests, sres.Failed

	s = time.Now()
	det := &core.Detector{Matcher: pii.NewMatcher(identity)}
	t.compile = time.Since(s)

	s = time.Now()
	t.drained = px.Drain(2 * time.Second)
	t.drain = time.Since(s)

	s = time.Now()
	result := &core.ExperimentResult{
		Service: j.spec.Key, Name: j.spec.Name, Category: j.spec.Category,
		Rank: j.spec.Rank, OS: j.cell.OS, Medium: j.cell.Medium,
	}
	core.AnalyzeFlows(eco.Categorizer, false, j.spec.Key, result, det, sink.Flows())
	t.analyze = time.Since(s)
	t.counts.flows, t.counts.leaks = result.TotalFlows, len(result.Leaks)
	return t
}

// deviceIndex alternates between the two handsets per platform, exactly
// as core.Runner assigns them.
func deviceIndex(key string) int {
	n := 0
	for _, c := range key {
		n += int(c)
	}
	return n % 2
}

// compileAllocKB is the median heap allocation of one pii.NewMatcher
// call, measured serially (the campaign pass compiles concurrently, so
// its allocation deltas would mix experiments).
func compileAllocKB(specs []*services.Spec) float64 {
	var kb []float64
	for _, spec := range specs {
		for _, os := range []services.OS{services.Android, services.IOS} {
			rec := core.IdentityFor(spec.Key, os)
			before := totalAlloc()
			pii.NewMatcher(rec)
			kb = append(kb, float64(totalAlloc()-before)/1024)
		}
	}
	return median(kb)
}
