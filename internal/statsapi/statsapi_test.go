package statsapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
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

// TestAPIMatchesReplay is a reference-model check: over a seeded random
// stream of accepts, payouts (half of them to tokens with no local
// share), found blocks and bans, read mid-stream and at the end, /top
// paged to its end holds each token's hashes and paid exactly as
// archive.Replay derives them, and /blocks pages out the last maxRecent
// of Replay's blocks.
func TestAPIMatchesReplay(t *testing.T) {
	a, store, _ := newTestAPI(t)
	rng := rand.New(rand.NewSource(35))
	const events = 3000 // inside the store's ring: Replay sees every event
	for i := 0; i < events; i++ {
		ev := archive.Event{TimeNs: int64(i) * int64(time.Second)}
		switch r := rng.Intn(10); {
		case r < 4:
			ev.Kind, ev.Actor, ev.Amount = archive.KindShareAccepted, fmt.Sprintf("local%d", rng.Intn(20)), uint64(1+rng.Intn(1000))
		case r < 6:
			owner := "local"
			if rng.Intn(2) == 0 {
				owner = "remote"
			}
			ev.Kind, ev.Actor, ev.Amount = archive.KindPayout, fmt.Sprintf("%s%d", owner, rng.Intn(20)), 1+rng.Uint64()>>20
		case r < 8:
			ev.Kind, ev.Height, ev.Amount = archive.KindBlockFound, uint64(i), rng.Uint64()>>16
			ev.Aux, ev.Aux2 = uint64(1_525_000_000+i), uint64(rng.Intn(128))
		default:
			ev.Kind, ev.Actor = archive.KindBan, fmt.Sprintf("local%d|10.0.0.%d", rng.Intn(20), rng.Intn(256))
		}
		store.Append(&ev)
		if i%1000 == 999 {
			requireMatchesReplay(t, a, store)
		}
	}
}

// requireMatchesReplay pages /top and /blocks to their ends and checks
// them against archive.Replay of the same store.
func requireMatchesReplay(t *testing.T, a *API, store archive.Store) {
	t.Helper()
	rep, err := archive.Replay(store)
	if err != nil {
		t.Fatal(err)
	}
	var top []topEntry
	var blocks []blockEntry
	for cursor := ""; ; {
		var page struct {
			Top        []topEntry `json:"top"`
			NextCursor string     `json:"next_cursor"`
		}
		get(t, a, "/api/v1/top?limit=7&cursor="+cursor, &page)
		top = append(top, page.Top...)
		if cursor = page.NextCursor; cursor == "" {
			break
		}
	}
	for cursor := ""; ; {
		var page struct {
			Blocks     []blockEntry `json:"blocks"`
			NextCursor string       `json:"next_cursor"`
		}
		get(t, a, "/api/v1/blocks?cursor="+cursor, &page)
		blocks = append(blocks, page.Blocks...)
		if cursor = page.NextCursor; cursor == "" {
			break
		}
	}

	listed := map[string]bool{}
	for i, e := range top {
		if listed[e.Token] {
			t.Fatalf("/top lists %s twice", e.Token)
		}
		listed[e.Token] = true
		if i > 0 && e.Hashes > top[i-1].Hashes {
			t.Fatalf("/top out of order at %d: %d hashes after %d", i, e.Hashes, top[i-1].Hashes)
		}
		if e.Hashes != rep.Credit[e.Token] || e.Paid != rep.Paid[e.Token] {
			t.Fatalf("/top %s: hashes %d paid %d, Replay %d and %d", e.Token, e.Hashes, e.Paid, rep.Credit[e.Token], rep.Paid[e.Token])
		}
	}
	for _, m := range []map[string]uint64{rep.Credit, rep.Paid} {
		for token := range m {
			if !listed[token] {
				t.Fatalf("/top omits %s", token)
			}
		}
	}

	want := rep.Blocks[max(0, len(rep.Blocks)-maxRecent):]
	if len(blocks) != len(want) {
		t.Fatalf("/blocks pages out %d blocks, want the last %d of Replay's %d", len(blocks), len(want), len(rep.Blocks))
	}
	for i, b := range want {
		if blocks[i] != blockEntry(b) {
			t.Fatalf("/blocks[%d] = %+v, Replay %+v", i, blocks[i], b)
		}
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
