package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/services"
)

func TestGatewayInputsSameSeedSameRequests(t *testing.T) {
	rec1, a := gatewayInputs(7, 64)
	rec2, b := gatewayInputs(7, 64)
	if !reflect.DeepEqual(rec1, rec2) || !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different gateway inputs")
	}
	if !reflect.DeepEqual(gatewayOrder(7, 64), gatewayOrder(7, 64)) {
		t.Fatal("seed 7 generated two different client orders")
	}
	_, c := gatewayInputs(8, 64)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 generated the same gateway inputs")
	}
}

func TestGatewayInputsPlacements(t *testing.T) {
	const n = 200
	rec, reqs := gatewayInputs(3, n)
	m := pii.NewMatcher(rec)
	var inURL, inHeader, inBody, clean int
	for i := range reqs {
		q := &reqs[i]
		if len(q.Body) < gatewayMinBody-1 || len(q.Body) > gatewayMaxBody {
			t.Errorf("request %d: body of %d bytes outside [%d, %d]", i, len(q.Body), gatewayMinBody, gatewayMaxBody)
		}
		if !bytes.HasSuffix(q.Body, bodySentinel) {
			t.Errorf("request %d: body does not end with the sentinel", i)
		}
		bodyHits := len(m.Scan("body", string(q.Body)))
		if q.InBody != (bodyHits > 0) {
			t.Errorf("request %d: InBody=%v but the body has %d matches", i, q.InBody, bodyHits)
		}
		if q.InURL != (len(m.Scan("url", q.Query)) > 0) {
			t.Errorf("request %d: InURL=%v disagrees with a scan of %q", i, q.InURL, q.Query)
		}
		if q.InHeader != (len(m.Scan("headers", q.Header)) > 0) {
			t.Errorf("request %d: InHeader=%v disagrees with a scan of %q", i, q.InHeader, q.Header)
		}
		if q.clean() != q.Types.Empty() {
			t.Errorf("request %d: clean=%v with placed types %v", i, q.clean(), q.Types)
		}
		places := 0
		for _, b := range []bool{q.InURL, q.InHeader, q.InBody} {
			if b {
				places++
			}
		}
		if places > 1 {
			t.Errorf("request %d carries PII in %d places, want one at most", i, places)
		}
		count := func(b bool, c *int) {
			if b {
				*c++
			}
		}
		count(q.InURL, &inURL)
		count(q.InHeader, &inHeader)
		count(q.InBody, &inBody)
		count(q.clean(), &clean)
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"url", inURL, int(math.Round(gatewayURLRate * n))},
		{"header", inHeader, int(math.Round(gatewayHeaderRate * n))},
		{"body", inBody, int(math.Round(gatewayBodyRate * n))},
	} {
		if c.got != c.want || c.got == 0 {
			t.Errorf("%s placements: %d of %d requests, want %d (and not 0)", c.name, c.got, n, c.want)
		}
	}
	if clean != n-inURL-inHeader-inBody {
		t.Errorf("%d clean requests, want %d", clean, n-inURL-inHeader-inBody)
	}
	// Each place covers the size range: it has requests in both halves.
	for _, place := range []int{placeURL, placeHeader, placeBody} {
		var small, large int
		for i, p := range placeRanks(n) {
			if p == place && i < n/2 {
				small++
			} else if p == place {
				large++
			}
		}
		if small == 0 || large == 0 {
			t.Errorf("place %d: %d requests in the smaller half, %d in the larger", place, small, large)
		}
	}
}

// TestGatewayRatesMatchCampaign recounts, in the campaign workload's own
// campaign, the flows and leak provenance the gateway's placement rates
// are derived from.
func TestGatewayRatesMatchCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 200-experiment campaign")
	}
	eco, runner, err := startCampaign(services.Catalog(), core.Options{Scale: campaignScale, Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()
	ds, err := runner.RunCampaignContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var kept int
	where := map[string]int{}
	for _, r := range ds.Results {
		kept += r.TotalFlows
		for _, l := range r.Leaks {
			if l.Provenance == nil {
				t.Fatalf("%s: leak to %s without provenance", r.Service, l.Host)
			}
			in := map[string]bool{}
			for _, m := range l.Provenance.Matches {
				in[m.Where] = true
			}
			switch {
			case len(in) > 1:
				where["several"]++
			case in["url"]:
				where["url"]++
			case in["headers"]:
				where["headers"]++
			case in["body"]:
				where["body"]++
			}
		}
	}
	want := map[string]int{"url": campaignLeakURL, "headers": campaignLeakHeaders, "body": campaignLeakBody}
	for k := range want {
		if want[k] == 0 {
			delete(want, k)
		}
	}
	if kept != campaignKeptFlows || !reflect.DeepEqual(where, want) {
		t.Errorf("campaign: %d kept flows, leaks by place %v; the rates assume %d and %v", kept, where, campaignKeptFlows, want)
	}
}

func TestJournalAndReadSchedulesSameSeedSameSchedule(t *testing.T) {
	src := []string{"a", "b", "c", "d"}
	j1, j2 := journalSchedule(5, src, 3), journalSchedule(5, src, 3)
	if !reflect.DeepEqual(j1, j2) {
		t.Fatal("seed 5 generated two different journal schedules")
	}
	if reflect.DeepEqual(j1, journalSchedule(6, src, 3)) {
		t.Fatal("seeds 5 and 6 generated the same journal schedule")
	}
	if len(j1) != 12 {
		t.Fatalf("journal schedule has %d appends, want 12", len(j1))
	}
	seen := map[string]bool{}
	for _, e := range j1 {
		if seen[e.Service] {
			t.Errorf("service %q appended twice: copies must be re-keyed", e.Service)
		}
		seen[e.Service] = true
	}

	r1, r2 := readSchedule(5, 46, 5000), readSchedule(5, 46, 5000)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("seed 5 generated two different read schedules")
	}
	if reflect.DeepEqual(r1, readSchedule(6, 46, 5000)) {
		t.Fatal("seeds 5 and 6 generated the same read schedule")
	}
	if len(r1) != 5000 {
		t.Fatalf("read schedule has %d reads, want 5000", len(r1))
	}
	freq := func(r []int) []int {
		f := make([]int, 46)
		for _, k := range r {
			if k < 0 || k >= 46 {
				t.Fatalf("read of key %d outside [0, 46)", k)
			}
			f[k]++
		}
		return f
	}
	f := freq(r1)
	if !reflect.DeepEqual(f, freq(readSchedule(6, 46, 5000))) {
		t.Error("seeds 5 and 6 read the keys different numbers of times: the mix must not depend on the seed")
	}
	for k := 1; k < 46; k++ {
		if f[k] > f[k-1] {
			t.Errorf("key %d read %d times, more than key %d (%d): the mix is not zipfian", k, f[k], k-1, f[k-1])
		}
	}
	if f[0] < 5000/10 {
		t.Errorf("hottest key read %d of 5000 times: the mix is not zipfian", f[0])
	}
}

func TestPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	got := summarize(xs)
	want := tail{N: 200, P50: 100, P95: 190, Beyond: 10}
	if got != want {
		t.Errorf("summarize(1..200) = %+v, want %+v", got, want)
	}
	if xs[0] != 200 {
		t.Error("summarize reordered its input")
	}
	if got := summarize(xs[:100]); got.Beyond != 5 || got.P95 != 195 {
		t.Errorf("summarize(200..101) = %+v, want p95 195 with 5 beyond", got)
	}
	if got := summarize([]float64{4}); got != (tail{N: 1, P50: 4, P95: 4}) {
		t.Errorf("summarize(4) = %+v", got)
	}
	if got := summarize(nil); got != (tail{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestSlope(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := slope(xs, []float64{3, 5, 7, 9}); got != 2 {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := slope([]float64{2, 2}, []float64{1, 5}); got != 0 {
		t.Errorf("slope without x spread = %v, want 0", got)
	}
}

func TestCampaignBytesReference(t *testing.T) {
	if len(campaignBytes) != len(services.Catalog())*len(services.AllCells()) {
		t.Fatalf("campaign_bytes.json has %d experiments", len(campaignBytes))
	}
	if got := bytesTolerance(0, 4000); got != 0 {
		t.Errorf("tolerance without A&A flows = %d, want 0: such byte totals are exact", got)
	}
	// 10 A&A flows, two cookie values each, counters of 1 to 4 digits.
	if got := bytesTolerance(10, 4000); got != 60 {
		t.Errorf("bytesTolerance(10, 4000) = %d, want 60", got)
	}
}
