package proxy

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"appvsweb/internal/capture"
)

// testWorld wires an origin CA, a resolver, a proxy, and a client trust
// store into a miniature internet.
type testWorld struct {
	t        testing.TB
	originCA *CA
	proxyCA  *CA
	resolver *MapResolver
	sink     *capture.MemSink
	proxy    *Proxy
}

func newWorld(t testing.TB) *testWorld {
	t.Helper()
	originCA, err := NewCA("Origin Root")
	if err != nil {
		t.Fatal(err)
	}
	proxyCA, err := NewCA("Meddle Interception CA")
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{
		t:        t,
		originCA: originCA,
		proxyCA:  proxyCA,
		resolver: NewMapResolver(),
		sink:     capture.NewMemSink(),
	}
	p, err := New(Config{
		CA:         proxyCA,
		Resolver:   w.resolver,
		OriginPool: originCA.Pool(),
		Sink:       w.sink,
		ClientID:   "test-device",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	w.proxy = p
	return w
}

// serveTLS starts a TLS origin for host and registers it.
func (w *testWorld) serveTLS(host string, handler http.Handler) {
	w.t.Helper()
	leaf, err := w.originCA.Leaf(host)
	if err != nil {
		w.t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{*leaf}})
	if err != nil {
		w.t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) //nolint:errcheck
	w.t.Cleanup(func() { srv.Close() })
	w.resolver.Register(host, "443", ln.Addr().String())
}

// servePlain starts a plaintext origin for host and registers it.
func (w *testWorld) servePlain(host string, handler http.Handler) {
	w.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) //nolint:errcheck
	w.t.Cleanup(func() { srv.Close() })
	w.resolver.Register(host, "80", ln.Addr().String())
}

// client returns a device HTTP client trusting both CAs (the proxy CA is
// "installed" on the device; origin CA stands in for the public roots).
func (w *testWorld) client() *http.Client {
	pool := w.proxyCA.Pool()
	pool.AddCert(w.originCA.cert)
	return &http.Client{
		Transport: ClientTransport(w.proxy.URL(), pool),
		Timeout:   5 * time.Second,
	}
}

func echoHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rw.Header().Set("X-Origin", "yes")
		fmt.Fprintf(rw, "echo:%s:%s:%s", r.Method, r.URL.Path, string(body))
	})
}

func TestHTTPSInterception(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("svc.example", echoHandler())
	resp, err := w.client().Get("https://svc.example/hello?user=jane")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "echo:GET:/hello:" {
		t.Errorf("body = %q", body)
	}
	if resp.Header.Get("X-Origin") != "yes" {
		t.Error("origin header lost")
	}
	flows := w.sink.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	f := flows[0]
	if f.Protocol != capture.HTTPS || !f.Intercepted {
		t.Errorf("flow not intercepted HTTPS: %+v", f)
	}
	if f.Host != "svc.example" || f.URL != "https://svc.example/hello?user=jane" {
		t.Errorf("flow host/url: %q %q", f.Host, f.URL)
	}
	if f.Status != 200 || f.Client != "test-device" {
		t.Errorf("status=%d client=%q", f.Status, f.Client)
	}
	if f.BytesDown <= 0 || f.BytesUp <= 0 {
		t.Errorf("byte accounting: up=%d down=%d", f.BytesUp, f.BytesDown)
	}
}

func TestHTTPSBodyCapture(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("api.example", echoHandler())
	resp, err := w.client().Post("https://api.example/login", "application/json",
		strings.NewReader(`{"user":"jane","password":"pw"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f := w.sink.Flows()[0]
	if f.Method != "POST" || !strings.Contains(f.RequestBody, `"password":"pw"`) {
		t.Errorf("body not captured: %+v", f)
	}
	if f.RequestHeaders["Content-Type"] != "application/json" {
		t.Errorf("headers not captured: %v", f.RequestHeaders)
	}
}

func TestPlainHTTPProxying(t *testing.T) {
	w := newWorld(t)
	w.servePlain("plain.example", echoHandler())
	resp, err := w.client().Get("http://plain.example/p?zip=02115")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "echo:GET:/p:" {
		t.Errorf("body = %q", body)
	}
	f := w.sink.Flows()[0]
	if f.Protocol != capture.HTTP || f.Intercepted {
		t.Errorf("flow = %+v", f)
	}
	if !f.Plaintext() {
		t.Error("plaintext flow not marked")
	}
}

func TestUpstreamDownHTTPS(t *testing.T) {
	w := newWorld(t)
	resp, err := w.client().Get("https://nowhere.example/x")
	if err != nil {
		t.Fatalf("client error: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
	f := w.sink.Flows()[0]
	if f.Status != http.StatusBadGateway || f.ResponseHeaders["X-Proxy-Error"] == "" {
		t.Errorf("flow = %+v", f)
	}
}

func TestUpstreamDownHTTP(t *testing.T) {
	w := newWorld(t)
	resp, err := w.client().Get("http://nowhere.example/x")
	if err != nil {
		t.Fatalf("client error: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestCertificatePinningDefeatsInterception(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("pinned.example", echoHandler())
	// The app pins the true origin certificate.
	pin, err := w.originCA.LeafFingerprint("pinned.example")
	if err != nil {
		t.Fatal(err)
	}
	pool := w.proxyCA.Pool()
	pool.AddCert(w.originCA.cert)
	client := &http.Client{
		Transport: PinnedTransport(w.proxy.URL(), pool, pin),
		Timeout:   5 * time.Second,
	}
	_, err = client.Get("https://pinned.example/secret")
	if err == nil {
		t.Fatal("pinned client accepted minted certificate")
	}
	if !strings.Contains(err.Error(), "pin mismatch") {
		t.Errorf("error = %v", err)
	}
	// The proxy records the aborted tunnel with no intercepted content.
	// Recording happens on the proxy's connection goroutine after the
	// client has already errored, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for w.sink.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	flows := w.sink.Flows()
	if len(flows) != 1 || flows[0].Intercepted || flows[0].Status != 0 {
		t.Errorf("tunnel failure not recorded: %+v", flows)
	}
}

func TestPinnedTransportAcceptsDirectOrigin(t *testing.T) {
	// Without the proxy in the path, the pin verifies and the request
	// succeeds — the control case.
	originCA, _ := NewCA("Origin Root")
	leaf, err := originCA.Leaf("direct.example")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{*leaf}})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: echoHandler()}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()

	pin := Fingerprint(leaf.Leaf)
	tr := &http.Transport{
		TLSClientConfig: &tls.Config{
			RootCAs:               originCA.Pool(),
			ServerName:            "direct.example",
			VerifyPeerCertificate: PinnedTransport(&url.URL{Scheme: "http", Host: "unused"}, originCA.Pool(), pin).TLSClientConfig.VerifyPeerCertificate,
		},
	}
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	resp, err := client.Get("https://" + ln.Addr().String() + "/ok")
	if err != nil {
		t.Fatalf("direct pinned request failed: %v", err)
	}
	resp.Body.Close()
}

func TestVirtualClockStampsFlows(t *testing.T) {
	originCA, _ := NewCA("Origin Root")
	proxyCA, _ := NewCA("Proxy CA")
	resolver := NewMapResolver()
	sink := capture.NewMemSink()
	fixed := time.Date(2016, 4, 15, 10, 30, 0, 0, time.UTC)
	p, err := New(Config{
		CA: proxyCA, Resolver: resolver, OriginPool: originCA.Pool(), Sink: sink,
		Now: func() time.Time { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	leaf, _ := originCA.Leaf("clock.example")
	ln, _ := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{*leaf}})
	srv := &http.Server{Handler: echoHandler()}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	resolver.Register("clock.example", "443", ln.Addr().String())

	pool := proxyCA.Pool()
	client := &http.Client{Transport: ClientTransport(p.URL(), pool), Timeout: 5 * time.Second}
	resp, err := client.Get("https://clock.example/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := sink.Flows()[0].Start; !got.Equal(fixed) {
		t.Errorf("flow time = %v, want %v", got, fixed)
	}
}

func TestConcurrentRequests(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("conc.example", echoHandler())
	client := w.client()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Get(fmt.Sprintf("https://conc.example/r/%d", i))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := w.sink.Len(); got != 32 {
		t.Errorf("flows = %d, want 32", got)
	}
}

func TestNilCARefusesConnect(t *testing.T) {
	resolver := NewMapResolver()
	sink := capture.NewMemSink()
	p, err := New(Config{Resolver: resolver, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	client := &http.Client{Transport: ClientTransport(p.URL(), nil), Timeout: 5 * time.Second}
	_, err = client.Get("https://x.example/")
	if err == nil {
		t.Fatal("CONNECT accepted without CA")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Sink: capture.NewMemSink()}); err == nil {
		t.Error("missing resolver accepted")
	}
	if _, err := New(Config{Resolver: NewMapResolver()}); err == nil {
		t.Error("missing sink accepted")
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	w := newWorld(t)
	if err := w.proxy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.proxy.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCALeafCachedAndVerifiable(t *testing.T) {
	ca, err := NewCA("Test CA")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ca.Leaf("host.example")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ca.Leaf("host.example")
	if a != b {
		t.Error("leaf not cached")
	}
	opts := x509.VerifyOptions{Roots: ca.Pool(), DNSName: "host.example"}
	if _, err := a.Leaf.Verify(opts); err != nil {
		t.Errorf("leaf does not verify: %v", err)
	}
	if Fingerprint(a.Leaf) != Fingerprint(b.Leaf) {
		t.Error("fingerprint unstable")
	}
	if !strings.Contains(string(ca.CertPEM()), "BEGIN CERTIFICATE") {
		t.Error("CertPEM not PEM")
	}
}

func TestResolver(t *testing.T) {
	r := NewMapResolver()
	r.Register("a.example", "443", "127.0.0.1:1111")
	r.Register("*.cdn.example", "443", "127.0.0.1:2222")
	if addr, err := r.Resolve("A.EXAMPLE", "443"); err != nil || addr != "127.0.0.1:1111" {
		t.Errorf("resolve = %q, %v", addr, err)
	}
	if addr, err := r.Resolve("x.cdn.example", "443"); err != nil || addr != "127.0.0.1:2222" {
		t.Errorf("wildcard = %q, %v", addr, err)
	}
	if addr, err := r.Resolve("deep.x.cdn.example", "443"); err != nil || addr != "127.0.0.1:2222" {
		t.Errorf("deep wildcard = %q, %v", addr, err)
	}
	if _, err := r.Resolve("missing.example", "443"); err == nil {
		t.Error("missing host resolved")
	}
	var dnsErr *net.DNSError
	_, err := r.Resolve("missing.example", "443")
	if !errors.As(err, &dnsErr) || !dnsErr.IsNotFound {
		t.Errorf("error type = %T %v", err, err)
	}
	if hosts := r.Hosts(); len(hosts) != 1 || hosts[0] != "a.example" {
		t.Errorf("Hosts = %v", hosts)
	}
}

func TestWriteSimpleResponseParseable(t *testing.T) {
	hdr := http.Header{"X-A": {"1"}, "Transfer-Encoding": {"chunked"}}
	s := string(simpleResponse(201, hdr, []byte("hello")))
	if !strings.HasPrefix(s, "HTTP/1.1 201 Created\r\n") {
		t.Errorf("status line: %q", s)
	}
	if strings.Contains(s, "Transfer-Encoding") {
		t.Error("hop header leaked")
	}
	if !strings.Contains(s, "Content-Length: 5\r\n") || !strings.HasSuffix(s, "hello") {
		t.Errorf("framing: %q", s)
	}
}

func BenchmarkProxyHTTPS(b *testing.B) {
	originCA, _ := NewCA("Origin Root")
	proxyCA, _ := NewCA("Proxy CA")
	resolver := NewMapResolver()
	var sink capture.CountingSink
	p, err := New(Config{CA: proxyCA, Resolver: resolver, OriginPool: originCA.Pool(), Sink: &sink})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Start(); err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	leaf, _ := originCA.Leaf("bench.example")
	ln, _ := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{*leaf}})
	srv := &http.Server{Handler: echoHandler()}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	resolver.Register("bench.example", "443", ln.Addr().String())

	client := &http.Client{Transport: ClientTransport(p.URL(), proxyCA.Pool()), Timeout: 10 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get("https://bench.example/r")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
}

func TestProxyStats(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("stats.example", echoHandler())
	client := w.client()
	for i := 0; i < 3; i++ {
		resp, err := client.Get("https://stats.example/x")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	resp, err := client.Get("https://missing.example/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	s := w.proxy.Stats()
	if s.Tunnels != 4 {
		t.Errorf("tunnels = %d, want 4", s.Tunnels)
	}
	if s.Requests != 4 {
		t.Errorf("requests = %d, want 4", s.Requests)
	}
	if s.UpstreamErrors != 1 {
		t.Errorf("upstream errors = %d, want 1", s.UpstreamErrors)
	}
	if s.BytesUp <= 0 || s.BytesDown <= 0 {
		t.Errorf("bytes = %+v", s)
	}
	if s.TunnelFailures != 0 {
		t.Errorf("tunnel failures = %d", s.TunnelFailures)
	}
}
