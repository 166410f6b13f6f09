package proxy

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
)

// startProxy builds and starts a proxy for cfg, closed at test end.
func startProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestInterceptResumesSecondConnect: one device client opens two tunnels
// to the same host (one request each, the paper's flow unit); the second
// intercept handshake resumes the first one's session, and the handshake
// counter records one full and one resumed handshake.
func TestInterceptResumesSecondConnect(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("svc.example", echoHandler())
	reg := obs.New()
	w.proxy = startProxy(t, Config{
		CA: w.proxyCA, Resolver: w.resolver, OriginPool: w.originCA.Pool(),
		Sink: w.sink, Metrics: reg,
	})
	client := w.client()
	var resumed []bool
	for i := 0; i < 2; i++ {
		resp, err := client.Get("https://svc.example/r")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		resumed = append(resumed, resp.TLS.DidResume)
	}
	if resumed[0] || !resumed[1] {
		t.Fatalf("DidResume per tunnel = %v, want [false true]", resumed)
	}
	if st := w.proxy.Stats(); st.Tunnels != 2 {
		t.Errorf("stats = %+v, want 2 tunnels", st)
	}
	vec := reg.CounterVec("proxy.tls.intercept_handshakes", "resumed")
	if full, res := vec.WithLabelValues("false").Value(), vec.WithLabelValues("true").Value(); full != 1 || res != 1 {
		t.Errorf("proxy.tls.intercept_handshakes: false=%d true=%d, want 1 and 1", full, res)
	}
}

// TestInterceptNoSNIUsesConnectHost: a client that sends no SNI gets the
// leaf for the host it named in CONNECT — per connection, although every
// tunnel shares the proxy's one intercept config.
func TestInterceptNoSNIUsesConnectHost(t *testing.T) {
	w := newWorld(t)
	for _, host := range []string{"first.example", "second.example"} {
		conn, err := net.Dial("tcp", w.proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "CONNECT %s:443 HTTP/1.1\r\nHost: %s:443\r\n\r\n", host, host)
		buf := make([]byte, len("HTTP/1.1 200 Connection Established\r\n\r\n"))
		if _, err := io.ReadFull(conn, buf); err != nil || !strings.Contains(string(buf), "200") {
			t.Fatalf("%s: CONNECT: %q %v", host, buf, err)
		}
		// An empty ServerName sends no SNI; the chain is checked by hand.
		var leaf *x509.Certificate
		tc := tls.Client(conn, &tls.Config{
			InsecureSkipVerify: true,
			VerifyConnection: func(cs tls.ConnectionState) error {
				leaf = cs.PeerCertificates[0]
				return nil
			},
		})
		if err := tc.Handshake(); err != nil {
			t.Fatalf("%s: handshake: %v", host, err)
		}
		if _, err := leaf.Verify(x509.VerifyOptions{DNSName: host, Roots: w.proxyCA.Pool()}); err != nil {
			t.Errorf("%s: leaf %v does not certify the CONNECT host: %v", host, leaf.DNSNames, err)
		}
		tc.Close()
	}
}

// TestPinnedClientNeverResumes: a pinning app fails its first tunnel and
// every later one. A resumed TLS session skips VerifyPeerCertificate, so
// the pinned client must never hold a session it could resume (§3.1
// criterion 4: pinning excludes the service).
func TestPinnedClientNeverResumes(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("pinned.example", echoHandler())
	reg := obs.New()
	w.proxy = startProxy(t, Config{
		CA: w.proxyCA, Resolver: w.resolver, OriginPool: w.originCA.Pool(),
		Sink: w.sink, Metrics: reg,
	})
	pin, err := w.originCA.LeafFingerprint("pinned.example")
	if err != nil {
		t.Fatal(err)
	}
	pool := w.proxyCA.Pool()
	pool.AddCert(w.originCA.cert)
	tr := PinnedTransport(w.proxy.URL(), pool, pin)
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	const attempts = 3
	for i := 0; i < attempts; i++ {
		_, err := client.Get("https://pinned.example/secret")
		if err == nil || !strings.Contains(err.Error(), "pin mismatch") {
			t.Fatalf("attempt %d: error = %v, want a pin mismatch", i+1, err)
		}
		if _, ok := tr.TLSClientConfig.ClientSessionCache.Get("pinned.example"); ok {
			t.Fatalf("attempt %d: pinned client holds a resumable session", i+1)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.proxy.Stats().TunnelFailures < attempts && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := w.proxy.Stats(); st.TunnelFailures != attempts || st.Requests != 0 {
		t.Errorf("stats = %+v, want %d tunnel failures, no requests", st, attempts)
	}
	vec := reg.CounterVec("proxy.tls.intercept_handshakes", "resumed")
	if full, res := vec.WithLabelValues("false").Value(), vec.WithLabelValues("true").Value(); full != 0 || res != 0 {
		t.Errorf("proxy.tls.intercept_handshakes: false=%d true=%d, want no completed handshakes", full, res)
	}
}

// TestSharedUpstreamSessions: two proxies sharing an UpstreamSessions
// cache — as a campaign's experiments do — let the second proxy's first
// upstream handshake resume the session the first proxy established; a
// proxy with its own cache runs that handshake in full.
func TestSharedUpstreamSessions(t *testing.T) {
	w := newWorld(t)
	var mu sync.Mutex
	var resumed []bool
	w.serveTLS("svc.example", http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		resumed = append(resumed, r.TLS.DidResume)
		mu.Unlock()
	}))
	shared := tls.NewLRUClientSessionCache(8)
	pool := w.proxyCA.Pool()
	pool.AddCert(w.originCA.cert)
	for _, sessions := range []tls.ClientSessionCache{shared, shared, nil} {
		p := startProxy(t, Config{
			CA: w.proxyCA, Resolver: w.resolver, OriginPool: w.originCA.Pool(),
			Sink: capture.NewMemSink(), UpstreamSessions: sessions,
		})
		client := &http.Client{Transport: ClientTransport(p.URL(), pool), Timeout: 5 * time.Second}
		resp, err := client.Get("https://svc.example/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		p.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []bool{false, true, false}; fmt.Sprint(resumed) != fmt.Sprint(want) {
		t.Fatalf("origin-side DidResume per proxy = %v, want %v (shared first, shared second, private)", resumed, want)
	}
}
