package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/serve"
)

// The serve-live workload is the report server while a campaign is still
// running: an analysis.Engine serves the committed dataset.json
// ("paper", static) next to a TailJournal live handle ("live"), both
// through serve.NewMux on loopback. A writer grows the live journal from
// empty to liveCopies × 200 experiments, re-keyed copies of dataset.json's
// records, polling the tail after each append; one SSE connection watches
// the live handle's events, and on each invalidation one keep-alive reader
// fetches readsPerUpdate artifacts of a seeded zipfian mix over both
// datasets (closed loop, If-None-Match on repeats), as a dashboard that
// refetches on push does. The reads overlap the next append and poll.
// Fold, fingerprint and recompute costs dominate; the proxy and pii
// layers do nothing.
const (
	liveCopies = 5 // journal copies of the dataset per round (1000 records)
	// liveProbeCopies is the journal size of a probe pass, in copies.
	liveProbeCopies = 1
	// zipfS is the zipf exponent of the artifact mix: the default of the
	// repository's serving load driver, cmd/avwbench, which is itself a
	// choice, not a measurement of real readers.
	zipfS = 1.2
	// readsPerUpdate is how many artifacts the reader fetches per
	// invalidation, an unverified assumption about a dashboard that
	// refetches on push. It sets ops_per_s to readsPerUpdate times the
	// append rate. Tying reads to updates fixes the work of a round, so
	// ops_per_s does not depend on who wins the race between the reader
	// and the writer.
	readsPerUpdate = 8
	// lagTimeout bounds the wait for one append's SSE event.
	lagTimeout = 10 * time.Second
)

var liveDatasets = []string{"paper", "live"}

// journalEntry is one scheduled append: dataset.json record Src under a
// re-keyed service name.
type journalEntry struct {
	Src     int
	Service string
}

// journalSchedule is the seeded order and naming of the appends: each
// copy is a permutation of the source records under a per-copy suffix.
func journalSchedule(seed int64, services []string, copies int) []journalEntry {
	r := rand.New(rand.NewSource(seed))
	var out []journalEntry
	for c := 0; c < copies; c++ {
		suffix := fmt.Sprintf("~%d%04x", c, r.Intn(1<<16))
		for _, i := range r.Perm(len(services)) {
			out = append(out, journalEntry{Src: i, Service: services[i] + suffix})
		}
	}
	return out
}

// readSchedule is the seeded sequence of n artifact reads, as indices
// into readKeys: each key is read its zipfian share of n times (rank k
// weighs (1+k)^-zipfS, shares rounded by largest remainder) in a seeded
// order. Artifacts differ a hundredfold in cost, so independent draws
// would make the cost of the mix swing between seeds; a fixed ranking and
// exact shares keep it the same.
func readSchedule(seed int64, keys, n int) []int {
	weights := make([]float64, keys)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -zipfS)
		total += weights[k]
	}
	counts := make([]int, keys)
	rem := make([]float64, keys)
	left := n
	for k, w := range weights {
		exact := w / total * float64(n)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		left -= counts[k]
	}
	byRem := make([]int, keys)
	for k := range byRem {
		byRem[k] = k
	}
	sort.SliceStable(byRem, func(i, j int) bool { return rem[byRem[i]] > rem[byRem[j]] })
	for _, k := range byRem[:left] {
		counts[k]++
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			out = append(out, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// readKeys lists every (dataset, artifact) pair the reader may fetch, in
// popularity order: the static dataset's artifacts, then the live ones.
// This ranking is an unverified assumption; cmd/avwbench instead picks
// the dataset uniformly and ranks artifacts alone.
func readKeys() []string {
	var keys []string
	for _, ds := range liveDatasets {
		for _, id := range analysis.ArtifactIDs() {
			keys = append(keys, "/api/"+ds+"/artifact/"+id)
		}
	}
	return keys
}

// liveRig is a running report server.
type liveRig struct {
	tail    *analysis.LiveTail
	srv     *http.Server
	base    string
	journal string
	scale   float64
}

// startServeLive is the serve-live set-up: load and register the static
// dataset, compute all its artifacts, attach the live tail, and serve.
func startServeLive(cfg config, reg *obs.Registry, dir string) (*liveRig, *core.Dataset, time.Duration, error) {
	ds, err := core.Load(filepath.Join(cfg.root, "dataset.json"))
	if err != nil {
		return nil, nil, 0, err
	}
	eng := analysis.NewEngine(analysis.EngineOptions{Metrics: reg})
	start := time.Now()
	if _, err := eng.Register("paper", ds).ComputeAll(context.Background()); err != nil {
		return nil, nil, 0, err
	}
	computeAll := time.Since(start)
	journal := filepath.Join(dir, "live.jsonl")
	tail := eng.TailJournal("live", journal, analysis.LiveOptions{Scale: ds.Meta.Scale})
	mux := serve.NewMux(eng, ds, reg, obs.NopLogger(), serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return &liveRig{tail: tail, srv: srv, base: "http://" + ln.Addr().String(),
		journal: journal, scale: ds.Meta.Scale}, ds, computeAll, nil
}

// sseEvent is one invalidate frame: its generation and arrival time.
type sseEvent struct {
	gen uint64
	at  time.Time
}

// sseWatch reads the live handle's event stream, reports on ready once
// the hello frame arrived, and forwards every invalidate frame.
func sseWatch(ctx context.Context, base string, ready chan<- error, events chan<- sseEvent) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/live/events", nil)
	if err != nil {
		ready <- err
		return
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		ready <- err
		return
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "hello" {
				ready <- nil
			}
		case strings.HasPrefix(line, "id: ") && event == "invalidate":
			gen, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err == nil {
				select {
				case events <- sseEvent{gen, time.Now()}:
				case <-ctx.Done():
					return
				}
			}
		}
	}
}

// liveRound is what one writer round measured.
type liveRound struct {
	appends []time.Duration
	polls   []time.Duration
	sizes   []float64 // journal records when each poll ran
	lags    []time.Duration
	err     error
}

// writeRound replaces the journal with a fresh one and appends the
// schedule, polling after each append, waiting for its SSE event, and
// then signalling the reader on updates (one send per append).
func writeRound(rig *liveRig, ds *core.Dataset, sched []journalEntry, events <-chan sseEvent, updates chan<- struct{}) *liveRound {
	lr := &liveRound{}
	if err := os.Remove(rig.journal); err != nil && !os.IsNotExist(err) {
		lr.err = err
		return lr
	}
	j, err := core.CreateJournal(rig.journal)
	if err != nil {
		lr.err = err
		return lr
	}
	defer j.Close()
	for k, e := range sched {
		res := *ds.Results[e.Src]
		res.Service = e.Service
		start := time.Now()
		if err := j.Append(core.JournalRecord{Service: res.Service, OS: res.OS, Medium: res.Medium, Attempts: 1, Result: &res}); err != nil {
			lr.err = err
			return lr
		}
		appended := time.Now()
		lr.appends = append(lr.appends, appended.Sub(start))
		changed, err := rig.tail.Poll()
		lr.polls = append(lr.polls, time.Since(appended))
		lr.sizes = append(lr.sizes, float64(k+1))
		if err != nil || !changed {
			lr.err = fmt.Errorf("poll after append %d: changed=%v err=%v", k+1, changed, err)
			return lr
		}
		gen := rig.tail.Handle().Generation()
		timeout := time.After(lagTimeout)
		for waiting := true; waiting; {
			select {
			case ev := <-events:
				if ev.gen >= gen {
					lr.lags = append(lr.lags, ev.at.Sub(appended))
					updates <- struct{}{}
					waiting = false
				}
			case <-timeout:
				lr.err = fmt.Errorf("no SSE event for generation %d within %v", gen, lagTimeout)
				return lr
			}
		}
	}
	return lr
}

// reader is the keep-alive artifact client.
type reader struct {
	client      *http.Client
	base        string
	etags       map[string]string
	latencies   []time.Duration
	notModified int
	serverErr   int
	failed      int
	bytes       int64
}

func (rd *reader) read(key string) {
	req, err := http.NewRequest(http.MethodGet, rd.base+key, nil)
	if err != nil {
		rd.failed++
		return
	}
	if tag, ok := rd.etags[key]; ok {
		req.Header.Set("If-None-Match", tag)
	}
	start := time.Now()
	resp, err := rd.client.Do(req)
	if err != nil {
		rd.failed++
		return
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		rd.failed++
		return
	case resp.StatusCode == http.StatusNotModified:
		rd.notModified++
	case resp.StatusCode == http.StatusOK:
		rd.etags[key] = resp.Header.Get("ETag")
		rd.bytes += n
	case resp.StatusCode >= 500:
		rd.serverErr++
		rd.failed++
		return
	default:
		rd.failed++
		return
	}
	rd.latencies = append(rd.latencies, time.Since(start))
}

func runServeLive(cfg config, m mode) (*outcome, error) {
	o := &outcome{}
	dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "serve-live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var reg *obs.Registry
	var rig *liveRig
	var ds *core.Dataset
	var computeAll time.Duration
	reps := setupReps
	if m == probe {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if rig != nil {
			rig.srv.Close()
		}
		reg = obs.New()
		runtime.GC()
		start := time.Now()
		if rig, ds, computeAll, err = startServeLive(cfg, reg, dir); err != nil {
			return nil, fmt.Errorf("serve-live set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(start))
	}
	defer rig.srv.Close()

	srcServices := make([]string, len(ds.Results))
	for i, r := range ds.Results {
		srcServices[i] = r.Service
	}
	copies := liveCopies
	if m == probe {
		copies = liveProbeCopies
	}
	sched := journalSchedule(cfg.seed, srcServices, copies)
	keys := readKeys()
	reads := readSchedule(cfg.seed, len(keys), len(sched)*readsPerUpdate)

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan error, 1)
	events := make(chan sseEvent, 1)
	var sseDone sync.WaitGroup
	sseDone.Add(1)
	go func() {
		defer sseDone.Done()
		sseWatch(ctx, rig.base, ready, events)
	}()
	defer sseDone.Wait()
	defer cancel()
	if err := <-ready; err != nil {
		return nil, fmt.Errorf("SSE connect: %w", err)
	}

	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	rd := &reader{client: &http.Client{Transport: tr}, base: rig.base, etags: make(map[string]string)}
	var rounds []*liveRound
	meter := startMeter()
	next := 0
	for len(rounds) == 0 || (m != probe && time.Since(meter.wall) < cfg.seconds) {
		updates := make(chan struct{}, len(sched))
		done := make(chan *liveRound, 1)
		go func() {
			defer close(updates)
			done <- writeRound(rig, ds, sched, events, updates)
		}()
		for range updates {
			for i := 0; i < readsPerUpdate; i++ {
				rd.read(keys[reads[next%len(reads)]])
				next++
			}
		}
		lr := <-done
		rounds = append(rounds, lr)
		if lr.err != nil {
			o.check(false, "writer round %d: %v", len(rounds), lr.err)
			break
		}
	}
	o.read = meter.stop()
	o.latencies = rd.latencies
	o.attempted = int64(next)
	o.failed = int64(rd.failed)
	o.bytes = rd.bytes
	o.check(rd.serverErr == 0, "%d 5xx responses", rd.serverErr)
	if rounds[len(rounds)-1].err == nil {
		checkLiveETags(o, rig, rd.client)
	}

	if m == untraced {
		return o, nil
	}
	var appends, polls, lags []time.Duration
	var sizes []float64
	for _, lr := range rounds {
		appends = append(appends, lr.appends...)
		polls = append(polls, lr.polls...)
		lags = append(lags, lr.lags...)
		sizes = append(sizes, lr.sizes...)
	}
	pollMS := ms(polls)
	pollT := summarize(pollMS)
	lagT := summarize(ms(lags))
	o.sample("poll_ms", pollT)
	o.sample("live_lag_ms", lagT)
	o.layer("analysis.compute_all_ms", "ms", msOf(computeAll))
	o.layer("core.journal_append_ms", "ms", median(ms(appends)))
	o.layer("analysis.poll_ms_p50", "ms", pollT.P50)
	o.layer("analysis.poll_ms_p95", "ms", pollT.P95)
	o.layer("analysis.poll_ms_per_1k_records", "ms", 1000*slope(sizes, pollMS))
	o.layer("live_lag_ms_p50", "ms", lagT.P50)
	o.layer("live_lag_ms_p95", "ms", lagT.P95)
	snap := reg.Snapshot()
	hits, misses := snap.Counters["analysis.cache_hits_total"], snap.Counters["analysis.cache_misses_total"]
	o.layer("analysis.cache_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	compute := snap.Histograms["analysis.compute_ns"]
	o.layer("analysis.compute_ms", "ms", ratio(float64(compute.Sum), float64(compute.Count))/1e6)
	o.layer("serve.not_modified_ratio", "ratio", ratio(float64(rd.notModified), float64(len(rd.latencies))))
	o.layer("serve.sse_events", "count", float64(snap.Counters["serve.sse_events_total"]))
	o.layer("serve.sse_evicted", "count", float64(snap.Counters["serve.sse_evicted_total"]))
	return o, nil
}

// checkLiveETags compares the ETags the server gives for every live
// artifact with those of a cold analysis.JournalDataset fold of the same
// journal.
func checkLiveETags(o *outcome, rig *liveRig, client *http.Client) {
	cold, err := analysis.JournalDataset(rig.journal, rig.scale)
	if err != nil {
		o.check(false, "cold fold: %v", err)
		return
	}
	h := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.New()}).Register("cold", cold)
	for _, id := range analysis.ArtifactIDs() {
		want, err := h.Artifact(context.Background(), id)
		if err != nil {
			o.check(false, "cold artifact %s: %v", id, err)
			continue
		}
		resp, err := client.Get(rig.base + "/api/live/artifact/" + id)
		if err != nil {
			o.check(false, "live artifact %s: %v", id, err)
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the header is compared
		resp.Body.Close()
		got := resp.Header.Get("ETag")
		o.check(resp.StatusCode == http.StatusOK && got == want.ETag,
			"live artifact %s: status %d ETag %s, cold fold ETag %s", id, resp.StatusCode, got, want.ETag)
	}
}
