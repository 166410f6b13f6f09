package proxy

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
)

// InlineAction selects what the inline gateway does when a flow carries
// ground-truth PII (docs/inline.md).
type InlineAction string

const (
	// InlineOff disables the gateway.
	InlineOff InlineAction = ""
	// InlineLog annotates the flow and emits a verdict; content is
	// forwarded untouched.
	InlineLog InlineAction = "log"
	// InlineRedact rewrites matched values in the URL and body with
	// pii.RedactionMark before forwarding (headers are observed but not
	// rewritten, matching the Rewriter seam).
	InlineRedact InlineAction = "redact"
	// InlineBlock refuses the request with a synthesized 403; nothing is
	// forwarded upstream. The tunnel stays open for later requests.
	InlineBlock InlineAction = "block"
)

// ParseInlineAction parses the -inline flag value.
func ParseInlineAction(s string) (InlineAction, error) {
	switch a := InlineAction(strings.ToLower(strings.TrimSpace(s))); a {
	case InlineOff, InlineLog, InlineRedact, InlineBlock:
		return a, nil
	default:
		return InlineOff, fmt.Errorf("inline: unknown action %q (want log, redact, or block)", s)
	}
}

// Inline is the streaming detect-and-mitigate gateway the proxy runs on
// its hot path: request bodies are scanned chunk-by-chunk as they transit
// (pii.StreamScanner carries DFA state across Writes, so needles split
// between chunks are still caught), URLs and headers are batch-scanned at
// forwarding time, and the configured action is applied per flow. One
// Inline is shared by every exchange of a proxy; all methods are safe for
// concurrent use, and safe on a nil receiver (no-ops) so the proxy needs
// no guards.
type Inline struct {
	m        *pii.Matcher
	redactor *pii.Redactor // non-nil only for InlineRedact
	action   InlineAction

	pool sync.Pool // of *pii.StreamScanner
	gets atomic.Int64
	puts atomic.Int64

	metrics inlineMetrics
}

// inlineMetrics are resolved once at construction (obs doc.go: resolve
// handles outside hot paths). The verdict counter is the gateway's series
// of the labeled proxy.inline.verdicts family.
type inlineMetrics struct {
	flows   *obs.Counter
	bytes   *obs.Counter
	matches *obs.Counter
	verdict *obs.Counter
}

// NewInline builds a gateway for a ground-truth record. A nil record or
// InlineOff returns nil (gateway disabled).
func NewInline(rec *pii.Record, action InlineAction, reg *obs.Registry) *Inline {
	if rec == nil || action == InlineOff {
		return nil
	}
	if reg == nil {
		reg = obs.Default
	}
	g := &Inline{
		m:      pii.NewMatcher(rec),
		action: action,
		metrics: inlineMetrics{
			flows:   reg.Counter("proxy.inline.flows_total"),
			bytes:   reg.Counter("proxy.inline.bytes_total"),
			matches: reg.Counter("proxy.inline.matches_total"),
			verdict: reg.CounterVec("proxy.inline.verdicts", "action").WithLabelValues(string(action)),
		},
	}
	if action == InlineRedact {
		g.redactor = pii.NewRedactor(rec)
	}
	return g
}

// Action returns the configured mitigation action.
func (g *Inline) Action() InlineAction {
	if g == nil {
		return InlineOff
	}
	return g.action
}

// PoolStats reports how many scanner checkouts and returns the pool has
// seen. After every in-flight exchange finishes (including ones whose
// client disconnected mid-body), gets == puts — the leak invariant the
// cancellation tests poll.
func (g *Inline) PoolStats() (gets, puts int64) {
	if g == nil {
		return 0, 0
	}
	return g.gets.Load(), g.puts.Load()
}

// inlineInspection is the per-exchange handle: one checked-out stream
// scanner plus the finish/release lifecycle. Used by a single goroutine.
type inlineInspection struct {
	g        *Inline
	ss       *pii.StreamScanner
	released bool
}

// begin checks a scanner out of the pool for one exchange.
func (g *Inline) begin() *inlineInspection {
	if g == nil {
		return nil
	}
	g.gets.Add(1)
	ss, _ := g.pool.Get().(*pii.StreamScanner)
	if ss == nil {
		ss = g.m.NewStreamScanner("body")
	} else {
		ss.Reset("body")
	}
	return &inlineInspection{g: g, ss: ss}
}

// release returns the scanner to the pool. Idempotent; the proxy defers it
// so a client disconnect mid-stream cannot leak the scanner.
func (in *inlineInspection) release() {
	if in == nil || in.released {
		return
	}
	in.released = true
	in.g.pool.Put(in.ss)
	in.ss = nil
	in.g.puts.Add(1)
}

// tee wraps a request body so every chunk feeds the stream scanner as it
// transits toward the upstream read. Nil-safe: with no gateway the body
// passes through untouched.
func (in *inlineInspection) tee(rc io.ReadCloser) io.ReadCloser {
	if in == nil || rc == nil {
		return rc
	}
	return &inlineTee{rc: rc, in: in}
}

type inlineTee struct {
	rc io.ReadCloser
	in *inlineInspection
}

func (t *inlineTee) Read(p []byte) (int, error) {
	n, err := t.rc.Read(p)
	if n > 0 {
		t.in.ss.Write(p[:n]) //nolint:errcheck // never fails
		t.in.g.metrics.bytes.Add(int64(n))
	}
	return n, err
}

func (t *inlineTee) Close() error { return t.rc.Close() }

// finish combines the body stream's matches with batch scans of the URL
// and headers into the flow's verdict, applying the redact action to the
// URL and body. It returns a nil verdict (and the inputs unchanged) when
// the flow carries no ground-truth PII. It releases the scanner before
// returning — the verdict holds copies of its matches — so the scanner is
// back in the pool before the upstream exchange and the client's response.
func (in *inlineInspection) finish(absURL string, hdr http.Header, body []byte) (*capture.InlineVerdict, string, []byte) {
	if in == nil {
		return nil, absURL, body
	}
	defer in.release()
	g := in.g
	iv, types := in.collect(absURL, hdr)
	if iv == nil {
		return nil, absURL, body
	}
	switch g.action {
	case InlineRedact:
		newURL, _ := g.redactor.Redact(absURL, types)
		newBody, _ := g.redactor.Redact(string(body), types)
		iv.Mitigated = newURL != absURL || newBody != string(body)
		return iv, newURL, []byte(newBody)
	case InlineBlock:
		iv.Mitigated = true
	}
	return iv, absURL, body
}

// socketVerdict builds the verdict for a relayed WebSocket session: the
// handshake URL and headers batch-scanned plus every stream match the
// frame relay fed through the scanner. Unlike finish, no rewrite happens
// here — for sockets, mitigation already ran frame-by-frame mid-relay, and
// the caller reports whether it changed (or refused) anything.
func (in *inlineInspection) socketVerdict(absURL string, hdr http.Header, mitigated bool) *capture.InlineVerdict {
	if in == nil {
		return nil
	}
	iv, _ := in.collect(absURL, hdr)
	if iv == nil {
		return nil
	}
	iv.Mitigated = mitigated
	return iv
}

// collect runs the batch URL/header scans, merges them with the stream
// scanner's body matches, and assembles the verdict skeleton (action not
// yet applied, Mitigated unset). Nil when the exchange carried no
// ground-truth PII. Counts the exchange in the gateway metrics either way.
func (in *inlineInspection) collect(absURL string, hdr http.Header) (*capture.InlineVerdict, pii.TypeSet) {
	g := in.g
	g.metrics.flows.Inc()

	urlMatches := g.m.Scan("url", absURL)
	hdrMatches := g.m.Scan("headers", headerText(hdr))
	bodyMatches := in.ss.Matches()
	total := len(urlMatches) + len(hdrMatches) + len(bodyMatches)
	if total == 0 {
		var zero pii.TypeSet
		return nil, zero
	}
	g.metrics.matches.Add(int64(total))
	g.metrics.verdict.Inc()

	var types pii.TypeSet
	evidence := make([]string, 0, total)
	for _, m := range urlMatches {
		types = types.Add(m.Type)
		evidence = append(evidence, m.Describe())
	}
	for _, m := range hdrMatches {
		types = types.Add(m.Type)
		evidence = append(evidence, m.Describe())
	}
	for _, sm := range bodyMatches {
		types = types.Add(sm.Type)
		// Body occurrences carry absolute stream offsets — the provenance
		// a post-hoc batch scan of a redacted flow could not reconstruct.
		evidence = append(evidence, fmt.Sprintf("%s @%d..%d", sm.Describe(), sm.Start, sm.End))
	}
	abbrevs := make([]string, 0, types.Len())
	for _, t := range types.Types() {
		abbrevs = append(abbrevs, t.Abbrev())
	}
	return &capture.InlineVerdict{
		Action:   string(g.action),
		Types:    abbrevs,
		Evidence: evidence,
	}, types
}

// headerText serializes headers exactly like capture.Flow.Sections, so the
// inline gateway and the post-hoc detector scan the same bytes.
func headerText(hdr http.Header) string {
	keys := make([]string, 0, len(hdr))
	for k := range hdr {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, strings.Join(hdr[k], ", "))
	}
	return b.String()
}

// blockPage renders the deterministic 403 body for a blocked flow: the
// action, the PII classes, and one evidence line per match.
func blockPage(iv *capture.InlineVerdict) []byte {
	var b strings.Builder
	b.WriteString("403 Forbidden: request blocked by the inline PII gateway\n\n")
	b.WriteString("The request carried ground-truth PII and the proxy's inline action is \"block\".\n")
	fmt.Fprintf(&b, "classes: %s\n", strings.Join(iv.Types, ","))
	b.WriteString("evidence:\n")
	for _, e := range iv.Evidence {
		fmt.Fprintf(&b, "  - %s\n", e)
	}
	return []byte(b.String())
}
