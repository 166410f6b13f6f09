package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/services"
)

// The gateway workload runs the proxy as a standalone inline PII gateway
// with the redact action (the ReCon/PrivacyProxy use case): two keep-alive
// client tunnels (closed loop) send HTTPS requests through CONNECT to a
// loopback origin. Bodies follow a log-uniform size mix across the range
// where streaming scan and redaction dominate, with ground-truth PII
// placed at fixed rates in the URL, the headers or the body. The origin
// re-scans what it received, so a redaction that leaves PII behind, or a
// clean body altered or cut short, counts against ok_ratio.
const (
	gatewayHost    = "origin.perfbench.test"
	gatewayPool    = 512     // distinct requests; clients cycle through them
	gatewayMinBody = 300     // bytes
	gatewayMaxBody = 2 << 20 // bytes; above the proxy's 1 MiB body cap on purpose
	gatewayClients = 2       // keep-alive client tunnels
	// gatewayProbePass is the pass size of a probe pass, which makes one.
	gatewayProbePass = 128
	// gatewayScanChunk is the write size of the direct stream-scan timing.
	gatewayScanChunk = 32 << 10
)

// Placement rates: the share of pool requests carrying PII in the URL, a
// header or the body, one place per request; the rest are clean. The URL
// and body rates are the campaign workload's own traffic: in its
// 200-experiment campaign, campaignLeakURL of the campaignKeptFlows flows
// kept after background filtering are leaks whose provenance
// (MatchEvidence.Where) puts the PII in the URL, campaignLeakBody in the
// body, none in both and none in the headers (TestGatewayRatesMatchCampaign
// recounts them). The simulated services never send PII in a header, so
// the header rate is an assumption, not a measurement: one request in 32,
// so that redaction leaving headers verbatim shows in ok_ratio.
const (
	campaignKeptFlows   = 3959
	campaignLeakURL     = 138
	campaignLeakBody    = 367
	campaignLeakHeaders = 0

	gatewayURLRate    = float64(campaignLeakURL) / campaignKeptFlows
	gatewayBodyRate   = float64(campaignLeakBody) / campaignKeptFlows
	gatewayHeaderRate = 1.0 / 32
)

// Places of a placement, as placeRanks returns them.
const (
	placeNone = iota
	placeURL
	placeHeader
	placeBody
)

// bodySentinel ends every body, so the origin can tell a truncated body
// from a redacted one. Filler bytes never form it.
var bodySentinel = []byte("~~perfbench end of body~~")

// fillerAlphabet has no letters or digits, so filler can never contain a
// ground-truth value under any encoding: only placed values match.
const fillerAlphabet = "!#$%&()*+,-./:;<=>?@[]^_{|} "

// gwRequest is one generated gateway request.
type gwRequest struct {
	ID       int
	Query    string // raw query string, "" when the URL carries no PII
	Header   string // PII header value, "" when the headers carry none
	Body     []byte
	Types    pii.TypeSet // classes placed anywhere in the request
	InURL    bool
	InHeader bool
	InBody   bool
}

func (r *gwRequest) clean() bool { return !r.InURL && !r.InHeader && !r.InBody }

// gatewayInputs generates the identity whose values are placed and the
// request pool, indexed by ascending body size. Sizes are stratified over
// the log-uniform range, each place's requests are spread evenly over the
// size ranks (placeRanks), and each place cycles through the identity's
// values in order. Redaction
// cost depends on the size of the bodies that carry PII anywhere and on
// their classes, and a few 2 MiB bodies dominate it, so free draws would
// make it swing between seeds; this way the seed moves sizes within their
// strata, the filler, where in a body its value sits, and the send order,
// while the mix of sizes, places and classes stays the same.
func gatewayInputs(seed int64, n int) (*pii.Record, []gwRequest) {
	r := rand.New(rand.NewSource(seed))
	rec := core.IdentityFor(services.Catalog()[0].Key, services.Android)
	values := rec.Values()

	filler := make([]byte, 64<<10)
	for i := range filler {
		filler[i] = fillerAlphabet[r.Intn(len(fillerAlphabet))]
	}
	lo, hi := math.Log(gatewayMinBody), math.Log(gatewayMaxBody)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = int(math.Exp(lo + (float64(i)+r.Float64())/float64(n)*(hi-lo)))
	}
	places := placeRanks(n)
	cycle := func() func() pii.Value {
		c := 0
		return func() pii.Value {
			c++
			return values[(c-1)%len(values)]
		}
	}
	urlValue, headerValue, bodyValue := cycle(), cycle(), cycle()

	reqs := make([]gwRequest, n)
	for i := range reqs {
		q := &reqs[i]
		q.ID = i
		body := make([]byte, sizes[i])
		off := r.Intn(len(filler))
		for k := range body {
			body[k] = filler[(off+k)%len(filler)]
		}
		copy(body[len(body)-len(bodySentinel):], bodySentinel)
		switch places[i] {
		case placeURL:
			v := urlValue()
			q.InURL, q.Types = true, q.Types.Add(v.Type)
			q.Query = "q=" + url.QueryEscape(v.Text)
		case placeHeader:
			v := headerValue()
			q.InHeader, q.Types = true, q.Types.Add(v.Type)
			q.Header = v.Text
		case placeBody:
			v := bodyValue()
			q.InBody, q.Types = true, q.Types.Add(v.Type)
			at := 1 + r.Intn(len(body)-len(bodySentinel)-len(v.Text)-2)
			copy(body[at:], v.Text)
		}
		q.Body = body
	}
	return rec, reqs
}

// placeRanks gives the place of each of n size ranks. Each place gets
// round(rate × n) ranks: the placed ranks are evenly spaced over the size
// range, and each place's share of them is spread evenly among them, so
// every place sees small and large bodies alike.
func placeRanks(n int) []int {
	type slot struct {
		at    float64 // position of the slot within its place, in [0, 1)
		place int
	}
	var slots []slot
	for place, rate := range map[int]float64{placeURL: gatewayURLRate, placeHeader: gatewayHeaderRate, placeBody: gatewayBodyRate} {
		k := int(math.Round(rate * float64(n)))
		for j := 0; j < k; j++ {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(k), place})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].at != slots[j].at {
			return slots[i].at < slots[j].at
		}
		return slots[i].place < slots[j].place
	})
	out := make([]int, n)
	for j, sl := range slots {
		out[int((float64(j)+0.5)*float64(n)/float64(len(slots)))] = sl.place
	}
	return out
}

// gatewayOrder is the seeded order of one pass over the pool.
func gatewayOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
}

// dispatcher hands the clients the requests of whole passes over the
// pool: the next request goes to whichever client is free, and no new
// pass starts once the deadline has passed. Every run therefore sends
// each pool request equally often, whatever the seed.
type dispatcher struct {
	mu       sync.Mutex
	order    []int
	next     int
	deadline time.Time
	done     bool
}

// take returns the pool index and sequence number (from 1) of the next
// request, or false when the run is over.
func (d *dispatcher) take() (int, int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done || (d.next > 0 && d.next%len(d.order) == 0 && !time.Now().Before(d.deadline)) {
		d.done = true
		return 0, 0, false
	}
	d.next++
	return d.order[(d.next-1)%len(d.order)], int64(d.next), true
}

func (d *dispatcher) sent() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.next)
}

// originReport is what the origin found in one received request.
type originReport struct {
	bytes     int
	truncated bool // the body does not end with the sentinel
	altered   bool // a clean request's body differs from what was sent
	residual  int  // ground-truth matches left in URL, headers or body
}

// origin is the loopback upstream. It re-scans every request that was
// sent with PII and compares every clean body byte for byte.
type origin struct {
	reqs    []gwRequest
	matcher *pii.Matcher

	mu      sync.Mutex
	reports map[int64]originReport // by X-Perfbench-Seq
	total   int64                  // body bytes received
}

func (g *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get("X-Perfbench-Id"))
	seq, err2 := strconv.ParseInt(r.Header.Get("X-Perfbench-Seq"), 10, 64)
	if err != nil || err2 != nil || id < 0 || id >= len(g.reqs) {
		http.Error(w, "perfbench: bad request id", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec := &g.reqs[id]
	rep := originReport{bytes: len(body), truncated: !bytes.HasSuffix(body, bodySentinel)}
	if spec.clean() {
		rep.altered = !bytes.Equal(body, spec.Body)
	} else {
		rep.residual = len(g.matcher.Scan("url", r.URL.RequestURI())) +
			len(g.matcher.Scan("headers", payloadHeaders(r.Header)))
		ss := g.matcher.NewStreamScanner("body")
		ss.Write(body) //nolint:errcheck // never fails
		rep.residual += len(ss.Matches())
	}
	g.mu.Lock()
	g.reports[seq] = rep
	g.total += int64(len(body))
	g.mu.Unlock()
	io.WriteString(w, "ok") //nolint:errcheck // a client teardown shows up client-side
}

// payloadHeaders renders the headers a client sent, minus the benchmark's
// own bookkeeping headers, for the residual scan.
func payloadHeaders(h http.Header) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		if !strings.HasPrefix(k, "X-Perfbench-") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, strings.Join(h[k], ", "))
	}
	return b.String()
}

// verdictSink keeps each flow's inline verdict, keyed by request sequence
// number, and drops the flow itself.
type verdictSink struct {
	mu       sync.Mutex
	verdicts map[int64]*capture.InlineVerdict
	recorded int64
}

func (s *verdictSink) Record(f *capture.Flow) {
	seq, err := strconv.ParseInt(f.RequestHeaders["X-Perfbench-Seq"], 10, 64)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded++
	if err == nil {
		s.verdicts[seq] = f.Inline
	}
}

func (s *verdictSink) count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded
}

// gatewayRig is a running gateway: origin, proxy and inline scanner.
type gatewayRig struct {
	org    *origin
	srv    *http.Server
	px     *proxy.Proxy
	inline *proxy.Inline
	sink   *verdictSink
	trust  *tls.Config
}

// startGateway is the gateway's set-up: the interception CA, the origin
// PKI and server, the inline gateway (matcher and redactor compiles), the
// origin's own matcher, and the proxy.
func startGateway(rec *pii.Record, reqs []gwRequest, reg *obs.Registry) (*gatewayRig, error) {
	interceptCA, err := proxy.NewCA("perfbench interception CA")
	if err != nil {
		return nil, err
	}
	originCA, err := proxy.NewCA("perfbench origin root")
	if err != nil {
		return nil, err
	}
	leaf, err := originCA.Leaf(gatewayHost)
	if err != nil {
		return nil, err
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{*leaf}})
	if err != nil {
		return nil, err
	}
	org := &origin{reqs: reqs, matcher: pii.NewMatcher(rec), reports: make(map[int64]originReport)}
	srv := &http.Server{Handler: org}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	resolver := proxy.NewMapResolver()
	resolver.Register(gatewayHost, "443", ln.Addr().String())
	sink := &verdictSink{verdicts: make(map[int64]*capture.InlineVerdict)}
	inline := proxy.NewInline(rec, proxy.InlineRedact, reg)
	px, err := proxy.New(proxy.Config{
		CA:         interceptCA,
		Resolver:   resolver,
		OriginPool: originCA.Pool(),
		Sink:       sink,
		Inline:     inline,
		Metrics:    reg,
	})
	if err == nil {
		err = px.Start()
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &gatewayRig{org: org, srv: srv, px: px, inline: inline, sink: sink,
		trust: &tls.Config{RootCAs: interceptCA.Pool()}}, nil
}

func (g *gatewayRig) close() {
	g.px.Close()
	g.srv.Close()
}

// clientStats is one client's record of its requests.
type clientStats struct {
	seqs       []int64
	latencies  []time.Duration
	hardFailed map[int64]bool
	handshakes []time.Duration
	resumed    int
}

// gatewayClient sends requests on one keep-alive tunnel until the
// dispatcher runs dry (closed loop).
func gatewayClient(rig *gatewayRig, reqs []gwRequest, d *dispatcher, trace bool) *clientStats {
	tr := &http.Transport{
		Proxy:               http.ProxyURL(rig.px.URL()),
		TLSClientConfig:     rig.trust.Clone(),
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	cs := &clientStats{hardFailed: make(map[int64]bool)}
	var hsStart time.Time
	ctx := context.Background()
	if trace {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			TLSHandshakeStart: func() { hsStart = time.Now() },
			TLSHandshakeDone: func(st tls.ConnectionState, err error) {
				if err == nil {
					cs.handshakes = append(cs.handshakes, time.Since(hsStart))
					if st.DidResume {
						cs.resumed++
					}
				}
			},
		})
	}
	for {
		id, s, ok := d.take()
		if !ok {
			return cs
		}
		spec := &reqs[id]
		u := "https://" + gatewayHost + "/upload"
		if spec.Query != "" {
			u += "?" + spec.Query
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(spec.Body))
		if err != nil {
			cs.hardFailed[s] = true
			continue
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("X-Perfbench-Id", strconv.Itoa(spec.ID))
		req.Header.Set("X-Perfbench-Seq", strconv.FormatInt(s, 10))
		if spec.InHeader {
			req.Header.Set("X-Client-Context", spec.Header)
		}
		start := time.Now()
		resp, err := client.Do(req)
		completed := false
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			completed = rerr == nil && resp.StatusCode == http.StatusOK && string(b) == "ok"
		}
		cs.seqs = append(cs.seqs, s)
		if !completed {
			cs.hardFailed[s] = true
			continue
		}
		cs.latencies = append(cs.latencies, time.Since(start))
	}
}

func runGateway(cfg config, m mode) (*outcome, error) {
	o := &outcome{}
	rec, reqs := gatewayInputs(cfg.seed, gatewayPool)
	order := gatewayOrder(cfg.seed, len(reqs))
	reg := obs.New()
	var rig *gatewayRig
	reps := setupReps
	if m == probe {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if rig, err = startGateway(rec, reqs, reg); err != nil {
			return nil, fmt.Errorf("gateway set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(start))
	}
	defer rig.close()

	stats := make([]*clientStats, gatewayClients)
	meter := startMeter()
	d := &dispatcher{order: order, deadline: meter.wall.Add(cfg.seconds)}
	if m == probe {
		d.order, d.deadline = order[:gatewayProbePass], meter.wall
	}
	var wg sync.WaitGroup
	for c := range stats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = gatewayClient(rig, reqs, d, m != untraced)
		}(c)
	}
	wg.Wait()
	o.read = meter.stop()

	// The proxy records a flow just after relaying the response; wait for
	// the last ones before judging.
	sent := d.sent()
	for wait := time.Now(); rig.sink.count() < sent && time.Since(wait) < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}
	var truncated, altered, residual, undetected int64
	var handshakes []time.Duration
	resumed := 0
	rig.org.mu.Lock()
	rig.sink.mu.Lock()
	for _, cs := range stats {
		o.latencies = append(o.latencies, cs.latencies...)
		handshakes = append(handshakes, cs.handshakes...)
		resumed += cs.resumed
		for _, s := range cs.seqs {
			o.attempted++
			if cs.hardFailed[s] {
				o.failed++
				continue
			}
			rep, reached := rig.org.reports[s]
			verdict := rig.sink.verdicts[s]
			switch {
			case !reached:
				o.incorrect++
			case rep.truncated:
				truncated++
				o.incorrect++
			case rep.altered:
				altered++
				o.incorrect++
			case rep.residual > 0 && verdict == nil:
				undetected++
				o.incorrect++
			case rep.residual > 0:
				residual++
				o.incorrect++
			}
		}
	}
	o.bytes = rig.org.total
	rig.sink.mu.Unlock()
	rig.org.mu.Unlock()
	o.check(o.attempted > 0, "no gateway request completed")

	if m == untraced {
		return o, nil
	}
	o.layer("gateway.truncated_bodies", "count", float64(truncated))
	o.layer("gateway.altered_bodies", "count", float64(altered))
	o.layer("gateway.residual_pii", "count", float64(residual))
	o.layer("gateway.undetected_pii", "count", float64(undetected))
	o.layer("proxy.tls_handshakes", "count", float64(len(handshakes)))
	o.layer("proxy.tls_handshake_ms", "ms", median(ms(handshakes)))
	o.layer("proxy.tls_resumed_ratio", "ratio", ratio(float64(resumed), float64(len(handshakes))))
	snap := reg.Snapshot()
	o.layer("proxy.inline.bytes", "bytes", float64(snap.Counters["proxy.inline.bytes_total"]))
	o.layer("proxy.inline.matches", "count", float64(snap.Counters["proxy.inline.matches_total"]))
	o.layer("proxy.inline.verdicts.redact", "count", float64(snap.Counters["proxy.inline.verdicts.redact"]))
	gets, puts := rig.inline.PoolStats()
	o.layer("proxy.inline.pool_reuse_ratio", "ratio", ratio(float64(puts), float64(gets)))
	sample := make([]gwRequest, len(d.order))
	for i, id := range d.order {
		sample[i] = reqs[id]
	}
	scan, redact := scanThroughput(rec, sample)
	o.layer("pii.stream_scan_mb_per_s", "MB/s", scan)
	o.layer("pii.redact_mb_per_s", "MB/s", redact)
	return o, nil
}

// scanThroughput times the two public calls the inline gateway makes on
// bodies — StreamScanner.Write and Redactor.Redact — over the generated
// bodies, outside the proxy.
func scanThroughput(rec *pii.Record, reqs []gwRequest) (scanMBps, redactMBps float64) {
	m := pii.NewMatcher(rec)
	ss := m.NewStreamScanner("body")
	var scanned int64
	start := time.Now()
	for i := range reqs {
		ss.Reset("body")
		body := reqs[i].Body
		for len(body) > 0 {
			n := min(len(body), gatewayScanChunk)
			ss.Write(body[:n]) //nolint:errcheck // never fails
			body = body[n:]
		}
		scanned += int64(len(reqs[i].Body))
	}
	scanMBps = ratio(float64(scanned)/1e6, time.Since(start).Seconds())

	red := pii.NewRedactor(rec)
	var redacted int64
	var busy time.Duration
	for i := range reqs {
		if reqs[i].clean() {
			continue
		}
		body := string(reqs[i].Body)
		start := time.Now()
		red.Redact(body, reqs[i].Types)
		busy += time.Since(start)
		redacted += int64(len(body))
	}
	return scanMBps, ratio(float64(redacted)/1e6, busy.Seconds())
}
