package statsapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/metrics"
)

const bucketNs = 10 * int64(time.Second)

func newTestAPI(t *testing.T) (*API, *archive.MemStore, *metrics.Registry) {
	t.Helper()
	store := archive.NewMemStore(1 << 12)
	reg := metrics.NewRegistry()
	return New(store, reg, Options{BucketNs: bucketNs}), store, reg
}

func get(t *testing.T, a *API, url string, into interface{}) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	a.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
	if into != nil && rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rr.Body.Bytes())
		}
	}
	return rr
}

func TestAccountAndPoolSeries(t *testing.T) {
	a, store, _ := newTestAPI(t)
	t0 := int64(1_525_000_000_000_000_000)
	store.Append(&archive.Event{TimeNs: t0, Kind: archive.KindShareStale, Actor: "site-a"})
	for i := 0; i < 25; i++ {
		store.Append(&archive.Event{
			TimeNs: t0 + int64(i)*bucketNs, // one accept per bucket
			Kind:   archive.KindShareAccepted,
			Actor:  "site-a", Amount: 100,
		})
	}

	var resp struct {
		BucketNs   int64  `json:"bucket_ns"`
		NextCursor string `json:"next_cursor"`
		Buckets    []struct {
			T        int64  `json:"t_ns"`
			Hashes   uint64 `json:"hashes"`
			Accepted uint64 `json:"accepted"`
			Stale    uint64 `json:"stale"`
		} `json:"buckets"`
	}
	rr := get(t, a, "/api/v1/accounts/site-a/series?limit=10", &resp)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if resp.BucketNs != bucketNs || len(resp.Buckets) != 10 || resp.NextCursor == "" {
		t.Fatalf("page 1 wrong: %d buckets, cursor %q", len(resp.Buckets), resp.NextCursor)
	}
	if resp.Buckets[0].Hashes != 100 || resp.Buckets[0].Accepted != 1 {
		t.Fatalf("bucket content wrong: %+v", resp.Buckets[0])
	}
	// Page through to the end with opaque cursors.
	total := len(resp.Buckets)
	for cursor := resp.NextCursor; cursor != ""; {
		resp.NextCursor = ""
		get(t, a, "/api/v1/accounts/site-a/series?limit=10&cursor="+cursor, &resp)
		total += len(resp.Buckets)
		cursor = resp.NextCursor
	}
	if total != 25 {
		t.Fatalf("paged %d buckets total, want 25", total)
	}

	// The pool series carries the stale column the account view lacks.
	get(t, a, "/api/v1/pool/series?limit=1", &resp)
	if len(resp.Buckets) != 1 || resp.Buckets[0].Stale != 1 || resp.Buckets[0].Accepted != 1 {
		t.Fatalf("pool bucket wrong: %+v", resp.Buckets)
	}

	// An unknown account is empty, not a 404: absence of history is an
	// answer the observer methodology relies on.
	var empty struct {
		Buckets []json.RawMessage `json:"buckets"`
	}
	if rr := get(t, a, "/api/v1/accounts/nobody/series", &empty); rr.Code != http.StatusOK || len(empty.Buckets) != 0 {
		t.Fatalf("unknown account: status %d, %d buckets", rr.Code, len(empty.Buckets))
	}
}

func TestTopBlocksBansAndInvalidation(t *testing.T) {
	a, store, reg := newTestAPI(t)
	store.Append(&archive.Event{Kind: archive.KindShareAccepted, Actor: "big", Amount: 500})
	store.Append(&archive.Event{Kind: archive.KindShareAccepted, Actor: "small", Amount: 10})
	store.Append(&archive.Event{Kind: archive.KindPayout, Actor: "big", Amount: 70})

	var top struct {
		Top []struct {
			Token  string `json:"token"`
			Hashes uint64 `json:"hashes"`
			Paid   uint64 `json:"paid"`
		} `json:"top"`
	}
	get(t, a, "/api/v1/top", &top)
	if len(top.Top) != 2 || top.Top[0].Token != "big" || top.Top[0].Hashes != 500 || top.Top[0].Paid != 70 {
		t.Fatalf("top wrong: %+v", top.Top)
	}

	// Invalidate-on-append: new events must surface on the next query.
	store.Append(&archive.Event{Kind: archive.KindShareAccepted, Actor: "small", Amount: 1000})
	store.Append(&archive.Event{Kind: archive.KindBlockFound, Height: 3, Amount: 777, Aux: 42, Aux2: 5})
	store.Append(&archive.Event{Kind: archive.KindBan, Actor: "small", TimeNs: 9})
	get(t, a, "/api/v1/top", &top)
	if top.Top[0].Token != "small" || top.Top[0].Hashes != 1010 {
		t.Fatalf("top not invalidated: %+v", top.Top)
	}

	var blocks struct {
		Blocks []struct {
			Height uint64 `json:"height"`
			Reward uint64 `json:"reward"`
		} `json:"blocks"`
	}
	get(t, a, "/api/v1/blocks", &blocks)
	if len(blocks.Blocks) != 1 || blocks.Blocks[0].Height != 3 || blocks.Blocks[0].Reward != 777 {
		t.Fatalf("blocks wrong: %+v", blocks.Blocks)
	}

	var bans struct {
		Bans []struct {
			Identity string `json:"identity"`
		} `json:"bans"`
	}
	get(t, a, "/api/v1/bans", &bans)
	if len(bans.Bans) != 1 || bans.Bans[0].Identity != "small" {
		t.Fatalf("bans wrong: %+v", bans.Bans)
	}

	// The server.api_* instruments must have counted all of the above.
	found := false
	for _, snap := range reg.Snapshots() {
		if snap.Name == "server.api_requests" {
			found = true
			if snap.Value < 4 {
				t.Fatalf("server.api_requests = %v, want >= 4", snap.Value)
			}
		}
	}
	if !found {
		t.Fatal("server.api_requests not registered")
	}
}

// TestTopListsPayoutsWithoutLocalShares: a federated node pays the whole
// PPLNS window, including miners who only submitted to a peer, so a
// payout can be an account's first event. /top must list it, and its
// paid column must sum to what archive.Replay keeps.
func TestTopListsPayoutsWithoutLocalShares(t *testing.T) {
	a, store, _ := newTestAPI(t)
	store.Append(&archive.Event{Kind: archive.KindShareAccepted, Actor: "local", Amount: 500})
	store.Append(&archive.Event{Kind: archive.KindPayout, Actor: "local", Amount: 30})
	store.Append(&archive.Event{Kind: archive.KindPayout, Actor: "remote", Amount: 40})

	var top struct {
		Top []struct {
			Token  string `json:"token"`
			Hashes uint64 `json:"hashes"`
			Paid   uint64 `json:"paid"`
		} `json:"top"`
	}
	get(t, a, "/api/v1/top", &top)
	var paid uint64
	remote := false
	for _, e := range top.Top {
		paid += e.Paid
		if e.Token == "remote" {
			remote = e.Paid == 40 && e.Hashes == 0
		}
	}
	if !remote {
		t.Errorf("top %+v does not list remote with paid 40 and no hashes", top.Top)
	}
	rep, err := archive.Replay(store)
	if err != nil {
		t.Fatal(err)
	}
	var replayed uint64
	for _, v := range rep.Paid {
		replayed += v
	}
	if paid != replayed {
		t.Errorf("top pays %d in total, archive.Replay %d", paid, replayed)
	}
}

func TestBadRequests(t *testing.T) {
	a, _, _ := newTestAPI(t)
	for url, want := range map[string]int{
		"/api/v1/pool/series?cursor=%21%21":                http.StatusBadRequest, // not base64
		"/api/v1/pool/series?limit=0":                      http.StatusBadRequest,
		"/api/v1/nope":                                     http.StatusNotFound,
		"/api/v1/accounts//series":                         http.StatusNotFound,
		"/api/v1/accounts/a/b/series":                      http.StatusNotFound,
		"/api/v1/blocks?cursor=" + encodeCursor("bans", 0): http.StatusBadRequest, // wrong-endpoint cursor
	} {
		if rr := get(t, a, url, nil); rr.Code != want {
			t.Errorf("GET %s: status %d, want %d", url, rr.Code, want)
		}
	}
}
