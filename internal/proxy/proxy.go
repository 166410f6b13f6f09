package proxy

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/ws"
)

// Config parameterizes a measurement proxy.
type Config struct {
	// CA is the interception authority. Required to decrypt HTTPS; with a
	// nil CA, CONNECT tunnels are refused (plaintext-only proxying).
	CA *CA
	// Resolver locates upstream servers. Required.
	Resolver Resolver
	// OriginPool holds the roots the proxy trusts when dialing upstream
	// TLS servers (the simulated web PKI) through its private pool. Nil
	// means system roots. Ignored when Upstream is set: the pool carries
	// its own roots.
	OriginPool *x509.CertPool
	// Sink receives one capture.Flow per exchange. Required.
	Sink capture.Sink
	// Now supplies flow timestamps; the experiment runner injects its
	// virtual clock. Defaults to time.Now.
	Now func() time.Time
	// ClientID is stamped on every flow (the device/session identity the
	// Meddle VPN would provide).
	ClientID string
	// MaxBodyBytes caps recorded request bodies. Defaults to 1 MiB.
	MaxBodyBytes int64
	// HandshakeTimeout bounds the CONNECT setup: the 200 response write
	// plus the client-side TLS handshake. A client that stalls mid-
	// handshake would otherwise pin the tunnel goroutine forever; on
	// timeout the tunnel is torn down and counted as an intercept failure
	// (proxy.tunnel_failures_total). Defaults to 15s.
	HandshakeTimeout time.Duration
	// IdleTimeout bounds the wait between tunneled requests (and between
	// WebSocket frames) once the handshake has succeeded. An established
	// tunnel whose client goes silent forever would otherwise pin its
	// goroutine for the life of the process. Reaps are counted under
	// proxy.tunnel_idle_reaps_total — distinct from handshake failures,
	// because by this point interception has demonstrably worked.
	// Defaults to 5m; negative disables.
	IdleTimeout time.Duration
	// Upstream is the proxy→origin connection pool, built by NewUpstream.
	// Nil gives the proxy a private pool, whose idle connections Close
	// releases. A pool passed in belongs to the caller and outlives the
	// proxy: Close leaves it alone. Proxies may share one pool — the
	// campaign runner passes one to every experiment, so a connection one
	// experiment opened serves the next — but only for one set of origin
	// roots: pooled connections and resumed sessions were verified once,
	// against the roots the pool was built with, and must not outlive them.
	Upstream *http.Transport
	// Rewriter, when set, may rewrite each intercepted request before it
	// is forwarded upstream — the ReCon-style protection mode the paper's
	// conclusion proposes. Recorded flows reflect what actually reached
	// the network.
	Rewriter Rewriter
	// Inline, when set, runs the streaming PII gateway on every exchange:
	// request bodies are scanned as they transit, and the gateway's action
	// (log/redact/block) is applied before the Rewriter sees the flow
	// (docs/inline.md). Nil disables inline detection.
	Inline *Inline
	// Tracer, when set, receives proxy-level trace events (certificate-
	// pinning tunnel failures) under SpanID — the experiment span the
	// campaign runner allocated. Nil disables them.
	Tracer *trace.Tracer
	// SpanID scopes this proxy's trace events to its experiment.
	SpanID string
	// Metrics receives process-wide proxy instrumentation (see
	// docs/metrics.md). Nil uses obs.Default. Per-proxy counts remain
	// available from Stats regardless.
	Metrics *obs.Registry
}

// Rewriter rewrites intercepted requests in flight.
type Rewriter interface {
	// Rewrite receives the destination host, whether the transport is
	// plaintext, the absolute URL, and the request body. It returns the
	// (possibly modified) URL and body, and whether anything changed.
	Rewrite(host string, plaintext bool, url string, body []byte) (newURL string, newBody []byte, changed bool)
}

// Proxy is a recording HTTP(S) forward proxy.
type Proxy struct {
	cfg Config
	// intercept terminates every CONNECT tunnel. One config per proxy
	// means one set of session-ticket keys, so a device that reconnects
	// to a host resumes its earlier session instead of running a full
	// handshake; the leaf is picked per connection from SNI, or from the
	// CONNECT host the notifyConn carries.
	intercept *tls.Config
	upstream  *http.Transport
	ownPool   bool              // upstream is private: Close releases it
	rt        http.RoundTripper // p.upstream, swappable by benchmarks
	srv       *http.Server
	ln        net.Listener

	mu     sync.Mutex
	closed bool

	// tunnelWG tracks in-flight tunnel goroutines. Hijacked connections
	// fall outside http.Server's accounting, and the WS/h2 serving paths
	// record their flows only when the client's close is observed — so a
	// caller that snapshots the Sink right after its traffic ends can race
	// a flow still being written. Drain closes that window.
	tunnelWG sync.WaitGroup

	stats struct {
		tunnels        atomic.Int64 // CONNECT tunnels accepted
		tunnelFailures atomic.Int64 // tunnels that died before a request
		tunnelIdle     atomic.Int64 // established tunnels reaped for idleness
		requests       atomic.Int64 // exchanges served (plain + tunneled)
		upstreamErrors atomic.Int64 // 502s returned
		bytesUp        atomic.Int64
		bytesDown      atomic.Int64
	}
	metrics proxyMetrics
}

// proxyMetrics holds the registry-wide counters, resolved once at
// construction so the per-exchange path never takes the registry lock. A
// campaign runs one proxy per experiment; these aggregate across all of
// them into one process-wide view.
type proxyMetrics struct {
	requests       *obs.Counter
	tunnels        *obs.Counter
	tunnelFailures *obs.Counter
	tunnelIdle     *obs.Counter
	upstreamErrors *obs.Counter
	bytesUp        *obs.Counter
	bytesDown      *obs.Counter
	flowBytes      *obs.Histogram
	h2Conns        *obs.Counter
	h2Streams      *obs.Counter
	// h2StreamIDFallback counts streams whose wire ID could not be read
	// from the h2 server internals and got an arrival-order guess instead.
	h2StreamIDFallback *obs.Counter
	wsConns            *obs.Counter
	wsFramesUp         *obs.Counter
	wsFramesDown       *obs.Counter
	wsBytes            *obs.Counter
	// interceptFull and interceptResumed split completed intercept
	// handshakes by whether the device resumed a session.
	interceptFull    *obs.Counter
	interceptResumed *obs.Counter
}

func newProxyMetrics(reg *obs.Registry) proxyMetrics {
	if reg == nil {
		reg = obs.Default
	}
	wsFrames := reg.CounterVec("proxy.ws.frames", "dir")
	handshakes := reg.CounterVec("proxy.tls.intercept_handshakes", "resumed")
	return proxyMetrics{
		requests:           reg.Counter("proxy.requests_total"),
		tunnels:            reg.Counter("proxy.tunnels_total"),
		tunnelFailures:     reg.Counter("proxy.tunnel_failures_total"),
		tunnelIdle:         reg.Counter("proxy.tunnel_idle_reaps_total"),
		upstreamErrors:     reg.Counter("proxy.upstream_errors_total"),
		bytesUp:            reg.Counter("proxy.bytes_up_total"),
		bytesDown:          reg.Counter("proxy.bytes_down_total"),
		flowBytes:          reg.Histogram("proxy.flow_bytes", "bytes"),
		interceptFull:      handshakes.WithLabelValues("false"),
		interceptResumed:   handshakes.WithLabelValues("true"),
		h2Conns:            reg.Counter("proxy.h2.conns_total"),
		h2Streams:          reg.Counter("proxy.h2.streams_total"),
		h2StreamIDFallback: reg.Counter("proxy.h2.streamid_fallback_total"),
		wsConns:            reg.Counter("proxy.ws.conns_total"),
		wsFramesUp:         wsFrames.WithLabelValues("up"),
		wsFramesDown:       wsFrames.WithLabelValues("down"),
		wsBytes:            reg.Counter("proxy.ws.bytes_total"),
	}
}

// Stats is a snapshot of the proxy's operational counters.
type Stats struct {
	Tunnels        int64
	TunnelFailures int64
	TunnelIdle     int64 // established tunnels reaped by IdleTimeout
	Requests       int64
	UpstreamErrors int64
	BytesUp        int64
	BytesDown      int64
}

// Stats returns the current counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Tunnels:        p.stats.tunnels.Load(),
		TunnelFailures: p.stats.tunnelFailures.Load(),
		TunnelIdle:     p.stats.tunnelIdle.Load(),
		Requests:       p.stats.requests.Load(),
		UpstreamErrors: p.stats.upstreamErrors.Load(),
		BytesUp:        p.stats.bytesUp.Load(),
		BytesDown:      p.stats.bytesDown.Load(),
	}
}

// hop-by-hop headers stripped when forwarding (RFC 7230 §6.1).
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// New builds a proxy from the config.
func New(cfg Config) (*Proxy, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("proxy: Resolver is required")
	}
	if cfg.Sink == nil {
		return nil, errors.New("proxy: Sink is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 15 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	} else if cfg.IdleTimeout < 0 {
		cfg.IdleTimeout = 0
	}
	p := &Proxy{
		cfg:      cfg,
		metrics:  newProxyMetrics(cfg.Metrics),
		upstream: cfg.Upstream,
	}
	if p.upstream == nil {
		p.upstream = NewUpstream(cfg.Resolver, cfg.OriginPool, cfg.Metrics)
		p.ownPool = true
	}
	if cfg.CA != nil {
		p.intercept = &tls.Config{
			GetCertificate: p.interceptCert,
			NextProtos:     []string{"h2", "http/1.1"},
		}
	}
	p.rt = p.upstream
	p.srv = &http.Server{Handler: p}
	return p, nil
}

// NewUpstream builds a proxy→origin connection pool for Config.Upstream:
// it dials through the resolver, verifies origins against roots (nil means
// system roots), resumes TLS sessions from an LRU cache, and keeps up to 8
// idle connections per host for 30s. Every TCP connection it opens counts
// in reg's proxy.upstream_dials_total (nil means obs.Default) — the pool's
// miss count.
func NewUpstream(r Resolver, roots *x509.CertPool, reg *obs.Registry) *http.Transport {
	if reg == nil {
		reg = obs.Default
	}
	dials := reg.Counter("proxy.upstream_dials_total")
	dial := DialContext(r)
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dial(ctx, network, addr)
			if err == nil {
				dials.Inc()
			}
			return c, err
		},
		TLSClientConfig: &tls.Config{
			RootCAs: roots,
			// A scale-0.05 campaign talks to about 170 origins.
			ClientSessionCache: tls.NewLRUClientSessionCache(1024),
		},
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     30 * time.Second,
	}
}

// interceptCert mints (or reuses) the leaf for one intercepted
// connection, falling back to the CONNECT host for clients that send no
// SNI.
func (p *Proxy) interceptCert(chi *tls.ClientHelloInfo) (*tls.Certificate, error) {
	var host string
	if nc, ok := chi.Conn.(*notifyConn); ok {
		host = nc.host
	}
	return p.cfg.CA.GetCertificate(host)(chi)
}

// Start listens on an ephemeral loopback port and serves until Close.
func (p *Proxy) Start() error {
	return p.StartOn("127.0.0.1:0")
}

// StartOn listens on a fixed address (e.g. "127.0.0.1:18080") and serves
// until Close; avwproxy's -addr flag uses it.
func (p *Proxy) StartOn(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("proxy: listen %s: %w", addr, err)
	}
	p.ln = ln
	go p.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// Addr returns the proxy's listen address, e.g. "127.0.0.1:40123".
func (p *Proxy) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// URL returns the proxy URL for http.Transport.Proxy.
func (p *Proxy) URL() *url.URL {
	return &url.URL{Scheme: "http", Host: p.Addr()}
}

// Drain blocks until every in-flight tunnel goroutine has exited — and
// therefore recorded its flow — or the timeout elapses; it reports whether
// the proxy fully drained. Callers whose clients have already closed their
// sockets use it to make the Sink snapshot complete: WS and h2 tunnels
// record asynchronously when they observe the client's close.
func (p *Proxy) Drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.tunnelWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close shuts the proxy down and releases the idle connections of its
// private upstream pool; a shared Config.Upstream stays open.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	if p.ownPool {
		p.upstream.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return p.srv.Shutdown(ctx)
}

// ServeHTTP dispatches plaintext proxying and CONNECT interception.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodConnect {
		p.handleConnect(w, r)
		return
	}
	p.handleHTTP(w, r)
}

// handleHTTP forwards an absolute-URI plaintext request.
func (p *Proxy) handleHTTP(w http.ResponseWriter, r *http.Request) {
	if !r.URL.IsAbs() {
		http.Error(w, "proxy: absolute URI required", http.StatusBadRequest)
		return
	}
	start := p.cfg.Now()
	insp := p.cfg.Inline.begin()
	defer insp.release()
	r.Body = insp.tee(r.Body)
	body, err := p.readBody(r)
	if err != nil {
		http.Error(w, "proxy: read body: "+err.Error(), http.StatusBadGateway)
		return
	}
	host := strings.ToLower(r.URL.Hostname())
	absURL := r.URL.String()
	iv, absURL, body := insp.finish(absURL, r.Header, body)
	if iv != nil {
		p.traceInlineVerdict(host, iv)
	}
	if iv != nil && iv.Action == string(InlineBlock) {
		f := p.newFlow(start, capture.HTTP, r, host, absURL, body, false)
		f.Inline = iv
		page := blockPage(iv)
		f.Status = http.StatusForbidden
		f.ResponseHeaders = map[string]string{"Content-Type": "text/plain; charset=utf-8"}
		f.ResponseSize = int64(len(page))
		f.BytesDown = int64(len(page))
		p.recordStats(f)
		p.cfg.Sink.Record(f)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusForbidden)
		w.Write(page) //nolint:errcheck // client teardown is not an error
		return
	}
	absURL, body, rewritten := p.rewrite(host, true, absURL, body)
	out := p.outboundRequest(r, absURL, body)
	resp, respBody, upErr := p.roundTrip(out)

	f := p.newFlow(start, capture.HTTP, r, host, absURL, body, false)
	f.Rewritten = rewritten || (iv != nil && iv.Mitigated)
	f.Inline = iv
	if upErr != nil {
		p.writeError(w, f, upErr)
		return
	}
	p.finishFlow(f, resp, respBody)
	p.recordStats(f)
	p.cfg.Sink.Record(f)
	for k, vv := range resp.Header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody) //nolint:errcheck // client teardown is not an error
}

// handleConnect hijacks the connection, terminates TLS with a minted
// certificate, and serves the decrypted requests inside the tunnel.
func (p *Proxy) handleConnect(w http.ResponseWriter, r *http.Request) {
	if p.cfg.CA == nil {
		http.Error(w, "proxy: TLS interception disabled", http.StatusForbidden)
		return
	}
	host, _, err := net.SplitHostPort(r.Host)
	if err != nil {
		host = r.Host
	}
	host = strings.ToLower(host)

	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "proxy: hijacking unsupported", http.StatusInternalServerError)
		return
	}
	rawConn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	p.tunnelWG.Add(1)
	defer p.tunnelWG.Done()
	p.stats.tunnels.Add(1)
	p.metrics.tunnels.Inc()
	// The close-notifying wrapper lets the h2 serving path learn when the
	// bundled HTTP/2 server (which owns the conn after handoff) is done
	// with it; for h1 and WS tunnels it is inert.
	raw := newNotifyConn(rawConn, host)
	defer raw.Close()
	start := p.cfg.Now()
	// The deadline covers both the 200 write and the TLS handshake: a
	// client that stalls mid-handshake must not pin this goroutine. The
	// deadline is real wall-clock time (p.cfg.Now may be a virtual clock).
	deadline := time.Now().Add(p.cfg.HandshakeTimeout)
	if err := raw.SetDeadline(deadline); err != nil {
		p.recordTunnelFailure(start, host, "connect setup: arm handshake deadline: "+err.Error())
		return
	}
	if _, err := io.WriteString(raw, "HTTP/1.1 200 Connection Established\r\n\r\n"); err != nil {
		p.recordTunnelFailure(start, host, "connect setup: write 200 Connection Established: "+err.Error())
		return
	}

	tlsConn := tls.Server(raw, p.intercept)
	defer tlsConn.Close()
	if err := tlsConn.HandshakeContext(r.Context()); err != nil {
		reason := "handshake: " + err.Error()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			reason = fmt.Sprintf("handshake: client stalled past the %v intercept deadline: %v", p.cfg.HandshakeTimeout, err)
		}
		p.recordTunnelFailure(start, host, reason)
		return
	}
	// Handshake done: lift the deadline so long-lived tunnels keep
	// serving requests at their own pace (the idle deadline below re-arms
	// reads per request).
	if err := tlsConn.SetDeadline(time.Time{}); err != nil {
		p.recordTunnelFailure(start, host, "connect setup: lift handshake deadline: "+err.Error())
		return
	}
	state := tlsConn.ConnectionState()
	p.recordHandshake(state.DidResume)

	if state.NegotiatedProtocol == "h2" {
		p.serveH2Tunnel(tlsConn, raw, host)
		return
	}

	br := newTunnelReader(tlsConn)
	defer putTunnelReader(br)
	served := 0
	for {
		if p.cfg.IdleTimeout > 0 {
			if err := tlsConn.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout)); err != nil {
				p.recordTunnelFailure(start, host, "arm idle deadline: "+err.Error())
				return
			}
		}
		req, err := http.ReadRequest(br)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// The handshake worked and requests may already have been
				// served; the client just went silent. Reap the goroutine
				// and count it apart from intercept failures.
				p.recordTunnelIdle(host, served)
				return
			}
			if served == 0 {
				// The client completed the handshake but sent nothing:
				// the signature of certificate pinning rejecting our
				// minted certificate (§3.1: Facebook's app fails
				// criterion 4).
				p.recordTunnelFailure(start, host, "tunnel aborted before first request")
			}
			return
		}
		if ws.IsUpgrade(req) {
			p.serveWSTunnel(tlsConn, br, req, host)
			return
		}
		if !p.serveTunneledRequest(tlsConn, req, host) {
			return
		}
		served++
	}
}

// recordHandshake counts one completed intercept handshake.
func (p *Proxy) recordHandshake(resumed bool) {
	if resumed {
		p.metrics.interceptResumed.Inc()
		return
	}
	p.metrics.interceptFull.Inc()
}

// recordTunnelIdle accounts an established tunnel reaped by IdleTimeout —
// deliberately not a tunnel failure: interception succeeded, the client
// just stopped talking.
func (p *Proxy) recordTunnelIdle(host string, served int) {
	p.stats.tunnelIdle.Add(1)
	p.metrics.tunnelIdle.Inc()
	p.cfg.Tracer.Emit(trace.Event{Type: trace.EvTunnelIdle, Span: p.cfg.SpanID, Attrs: map[string]string{
		"host":   host,
		"served": fmt.Sprint(served),
		"idle":   p.cfg.IdleTimeout.String(),
		"client": p.cfg.ClientID,
	}})
}

// serveTunneledRequest forwards one decrypted request; reports whether the
// tunnel should continue.
func (p *Proxy) serveTunneledRequest(conn net.Conn, r *http.Request, tunnelHost string) bool {
	start := p.cfg.Now()
	reqHost := r.Host
	if reqHost == "" {
		reqHost = tunnelHost
	}
	if h, _, err := net.SplitHostPort(reqHost); err == nil {
		reqHost = h
	}
	reqHost = strings.ToLower(reqHost)
	absURL := "https://" + reqHost + r.RequestURI

	insp := p.cfg.Inline.begin()
	defer insp.release()
	r.Body = insp.tee(r.Body)
	body, err := p.readBody(r)
	if err != nil {
		return false
	}
	iv, absURL, body := insp.finish(absURL, r.Header, body)
	if iv != nil {
		p.traceInlineVerdict(reqHost, iv)
	}
	if iv != nil && iv.Action == string(InlineBlock) {
		f := p.newFlow(start, capture.HTTPS, r, reqHost, absURL, body, true)
		f.Inline = iv
		page := blockPage(iv)
		f.Status = http.StatusForbidden
		f.ResponseHeaders = map[string]string{"Content-Type": "text/plain; charset=utf-8"}
		f.ResponseSize = int64(len(page))
		hdr := http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}}
		// Leak-table byte totals must count the upstream cost of blocked
		// requests too (the client paid it even though nothing was
		// forwarded); mirror the upstream-error path's accounting.
		f.BytesUp = requestWireSize(r, body)
		// The request was refused, not the tunnel: later requests on the
		// same connection get their own verdicts.
		return p.respond(conn, f, http.StatusForbidden, hdr, page) == nil
	}
	absURL, body, rewritten := p.rewrite(reqHost, false, absURL, body)
	out := p.outboundRequest(r, absURL, body)
	resp, respBody, upErr := p.roundTrip(out)

	f := p.newFlow(start, capture.HTTPS, r, reqHost, absURL, body, true)
	f.Rewritten = rewritten || (iv != nil && iv.Mitigated)
	f.Inline = iv
	if upErr != nil {
		f.Status = http.StatusBadGateway
		f.ResponseHeaders = map[string]string{"X-Proxy-Error": upErr.Error()}
		f.BytesUp = requestWireSize(r, body)
		p.stats.upstreamErrors.Add(1)
		p.metrics.upstreamErrors.Inc()
		p.respond(conn, f, http.StatusBadGateway, nil, nil) //nolint:errcheck // the tunnel ends either way
		return false
	}
	p.finishFlow(f, resp, respBody)
	return p.respond(conn, f, resp.StatusCode, resp.Header, respBody) == nil
}

// respond records a tunneled exchange's flow, with BytesDown set to the
// serialized response's size, and then writes that response to the
// client. Recording first means a client that has read its response can
// rely on the flow being in the Sink.
func (p *Proxy) respond(w io.Writer, f *capture.Flow, status int, header http.Header, body []byte) error {
	resp := simpleResponse(status, header, body)
	f.BytesDown = int64(len(resp))
	p.recordStats(f)
	p.cfg.Sink.Record(f)
	_, err := w.Write(resp)
	return err
}

// rewrite applies the configured protection rewriter, if any.
func (p *Proxy) rewrite(host string, plaintext bool, absURL string, body []byte) (string, []byte, bool) {
	if p.cfg.Rewriter == nil {
		return absURL, body, false
	}
	newURL, newBody, changed := p.cfg.Rewriter.Rewrite(host, plaintext, absURL, body)
	if !changed {
		return absURL, body, false
	}
	return newURL, newBody, true
}

// outboundRequest builds the upstream copy of an intercepted request.
func (p *Proxy) outboundRequest(r *http.Request, absURL string, body []byte) *http.Request {
	u, err := url.Parse(absURL)
	if err != nil {
		u = r.URL
	}
	out := &http.Request{
		Method:        r.Method,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header, len(r.Header)),
		Host:          u.Host,
		ContentLength: int64(len(body)),
	}
	for k, vv := range r.Header {
		out.Header[k] = append([]string(nil), vv...)
	}
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	if len(body) > 0 {
		out.Body = io.NopCloser(bytes.NewReader(body))
		// GetBody lets the transport replay the request when a pooled
		// connection turns out to have been closed by the origin.
		out.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	return out.WithContext(r.Context())
}

// roundTrip performs the upstream exchange and drains the response body.
func (p *Proxy) roundTrip(out *http.Request) (*http.Response, []byte, error) {
	resp, err := p.rt.RoundTrip(out)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

func (p *Proxy) readBody(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	return io.ReadAll(io.LimitReader(r.Body, p.cfg.MaxBodyBytes))
}

// newFlow builds the flow skeleton for one exchange.
func (p *Proxy) newFlow(start time.Time, proto capture.Protocol, r *http.Request, host, absURL string, body []byte, intercepted bool) *capture.Flow {
	hdrs := make(map[string]string, len(r.Header))
	for k, vv := range r.Header {
		hdrs[k] = strings.Join(vv, ", ")
	}
	for _, h := range hopHeaders {
		delete(hdrs, h)
	}
	return &capture.Flow{
		Start:          start,
		Client:         p.cfg.ClientID,
		Protocol:       proto,
		Method:         r.Method,
		Host:           host,
		URL:            absURL,
		RequestHeaders: hdrs,
		RequestBody:    string(body),
		BytesUp:        requestWireSize(r, body),
		Intercepted:    intercepted,
	}
}

func (p *Proxy) finishFlow(f *capture.Flow, resp *http.Response, respBody []byte) {
	f.Status = resp.StatusCode
	f.ResponseSize = int64(len(respBody))
	rh := make(map[string]string, len(resp.Header))
	for k, vv := range resp.Header {
		rh[k] = strings.Join(vv, ", ")
	}
	f.ResponseHeaders = rh
	f.BytesDown = responseWireSize(resp, respBody)
}

func (p *Proxy) writeError(w http.ResponseWriter, f *capture.Flow, err error) {
	f.Status = http.StatusBadGateway
	f.ResponseHeaders = map[string]string{"X-Proxy-Error": err.Error()}
	p.stats.upstreamErrors.Add(1)
	p.metrics.upstreamErrors.Inc()
	p.recordStats(f)
	p.cfg.Sink.Record(f)
	http.Error(w, "proxy: upstream: "+err.Error(), http.StatusBadGateway)
}

// recordStats folds one completed exchange into the per-proxy counters and
// the process-wide registry.
func (p *Proxy) recordStats(f *capture.Flow) {
	p.stats.requests.Add(1)
	p.stats.bytesUp.Add(f.BytesUp)
	p.stats.bytesDown.Add(f.BytesDown)
	p.metrics.requests.Inc()
	p.metrics.bytesUp.Add(f.BytesUp)
	p.metrics.bytesDown.Add(f.BytesDown)
	p.metrics.flowBytes.Observe(f.BytesUp + f.BytesDown)
}

// traceInlineVerdict publishes one inline-gateway verdict as a live trace
// event (nil-safe on the tracer, like every emit site).
func (p *Proxy) traceInlineVerdict(host string, iv *capture.InlineVerdict) {
	p.cfg.Tracer.Emit(trace.Event{Type: trace.EvInlineVerdict, Span: p.cfg.SpanID, Attrs: map[string]string{
		"host":     host,
		"action":   iv.Action,
		"types":    strings.Join(iv.Types, ","),
		"evidence": strings.Join(iv.Evidence, "; "),
		"client":   p.cfg.ClientID,
	}})
}

func (p *Proxy) recordTunnelFailure(start time.Time, host, reason string) {
	p.stats.tunnelFailures.Add(1)
	p.metrics.tunnelFailures.Inc()
	p.cfg.Tracer.Emit(trace.Event{Type: trace.EvTunnelFailure, Span: p.cfg.SpanID, Attrs: map[string]string{
		"host": host, "reason": reason, "client": p.cfg.ClientID,
	}})
	p.cfg.Sink.Record(&capture.Flow{
		Start:           start,
		Client:          p.cfg.ClientID,
		Protocol:        capture.HTTPS,
		Method:          http.MethodConnect,
		Host:            host,
		URL:             "https://" + host + "/",
		Status:          0,
		ResponseHeaders: map[string]string{"X-Proxy-Error": reason},
		Intercepted:     false,
	})
}

// requestWireSize approximates the on-the-wire size of a request.
func requestWireSize(r *http.Request, body []byte) int64 {
	n := int64(len(r.Method) + 1 + len(r.RequestURI) + 1 + len("HTTP/1.1") + 2)
	for k, vv := range r.Header {
		for _, v := range vv {
			n += int64(len(k) + 2 + len(v) + 2)
		}
	}
	return n + 2 + int64(len(body))
}

// responseWireSize approximates the on-the-wire size of a response.
func responseWireSize(resp *http.Response, body []byte) int64 {
	n := int64(len("HTTP/1.1 200 OK") + 2)
	for k, vv := range resp.Header {
		for _, v := range vv {
			n += int64(len(k) + 2 + len(v) + 2)
		}
	}
	return n + 2 + int64(len(body))
}

// simpleResponse serializes a response with an explicit Content-Length.
func simpleResponse(status int, header http.Header, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, http.StatusText(status))
	keys := make([]string, 0, len(header))
	for k := range header {
		if isHopHeader(k) || strings.EqualFold(k, "Content-Length") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range header[k] {
			fmt.Fprintf(&b, "%s: %s\r\n", k, v)
		}
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes()
}

func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if strings.EqualFold(h, k) {
			return true
		}
	}
	return false
}

// tunnelReaderPool recycles the per-tunnel request readers: a campaign
// opens one tunnel per simulated connection (clients disable keep-alive),
// so without pooling every CONNECT allocated a fresh 8 KiB buffer.
var tunnelReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 8<<10) },
}

func newTunnelReader(r io.Reader) *bufio.Reader {
	br := tunnelReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putTunnelReader(br *bufio.Reader) {
	br.Reset(nil)
	tunnelReaderPool.Put(br)
}

// notifyConn wraps the hijacked TCP conn underneath the TLS layer and
// closes a channel on first Close. The h2 tunnel path needs it: the
// bundled HTTP/2 server owns the *tls.Conn after handoff and closes it
// when the session ends, and that close (propagating to this wrapper) is
// the only completion signal available to the tunnel goroutine. It also
// carries the CONNECT host, which the shared intercept config falls back
// to when the client sends no SNI.
type notifyConn struct {
	net.Conn
	host string
	once sync.Once
	done chan struct{}
}

func newNotifyConn(c net.Conn, host string) *notifyConn {
	return &notifyConn{Conn: c, host: host, done: make(chan struct{})}
}

func (c *notifyConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}
