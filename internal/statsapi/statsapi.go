// Package statsapi serves the pool's archived history over HTTP: the
// queryable side of the observer loop the paper runs against its
// subject service. Where /api/stats and /metrics are live snapshots,
// /api/v1/... answers questions about the past — per-account hashrate
// and credit time series, pool-wide share-outcome series, top site
// keys by credited work, recent blocks and bans.
//
// Endpoints (all GET, all JSON):
//
//	/api/v1/pool/series            pool share-outcome series, bucketed
//	/api/v1/accounts/{token}/series  one account's hashes/shares series
//	/api/v1/top                    site keys ranked by credited work
//	/api/v1/blocks                 recent found blocks, newest last
//	/api/v1/bans                   recent bans, newest last
//
// List endpoints paginate via ?cursor= (opaque, from the previous
// response's next_cursor) and ?limit=.
//
// Query cost is O(page), not O(events): requests never scan the
// archive. A single ingest pass per request advances a cursor over the
// Store and folds new events into in-memory aggregates (per-account
// bucket series, pool series, top-K counts, blocks/bans rings); the
// sorted top-K view is cached and invalidated by append — it is
// recomputed only on the first /top after new events arrive.
package statsapi

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/metrics"
)

// Options tune aggregation granularity.
type Options struct {
	// bucketNs is the time-series bucket width (default 10s).
	bucketNs int64
}

func (o *Options) fillDefaults() {
	if o.bucketNs <= 0 {
		o.bucketNs = 10 * int64(time.Second)
	}
}

// Retention: each series keeps its last maxBuckets buckets, the blocks
// and bans rings their last maxRecent entries.
const (
	maxBuckets = 1024
	maxRecent  = 512
)

// API is the /api/v1 handler. One mutex guards the aggregates; the
// critical section per request is the ingest of *new* events plus an
// O(page) copy, so concurrent readers contend only briefly. Ingest
// reads the Store, which takes the store lock — by design this can
// delay the Recorder's drain goroutine, never the submit path.
type API struct {
	store archive.Store
	opts  Options

	requests *metrics.Counter
	latency  *metrics.Histogram

	mu       sync.Mutex
	cur      archive.Cursor
	version  uint64 // bumped when ingest applies events
	accounts map[string]*acctAgg
	pool     seriesAgg
	blocks   ring[blockEntry]
	bans     ring[banEntry]

	// top is the cached sorted ranking; topVersion names the aggregate
	// version it was built from (invalidate-on-append).
	top        []topEntry
	topVersion uint64

	scratch []archive.Event
}

// New builds the handler over store, registering server.api_requests
// and server.api_latency in reg (nil for a private registry).
func New(store archive.Store, reg *metrics.Registry, opts Options) *API {
	opts.fillDefaults()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &API{
		store:    store,
		opts:     opts,
		requests: reg.Counter("server.api_requests"),
		latency:  reg.Histogram("server.api_latency"),
		accounts: map[string]*acctAgg{},
		scratch:  make([]archive.Event, 512),
	}
}

// bucket is one time-series point. Hashes is credited difficulty;
// Shares counts accepted shares (account series) or is unused (pool
// series carries per-outcome counts instead).
type bucket struct {
	T        int64  `json:"t_ns"`
	Hashes   uint64 `json:"hashes,omitempty"`
	Accepted uint64 `json:"accepted,omitempty"`
	Stale    uint64 `json:"stale,omitempty"`
	Dup      uint64 `json:"duplicate,omitempty"`
	Rejected uint64 `json:"rejected,omitempty"`
}

// seriesAgg is an append-mostly bucket list with an absolute base
// index, so pagination cursors survive trimming: cursor positions are
// absolute bucket ordinals, and a trimmed-away position clamps forward.
type seriesAgg struct {
	base    int64 // ordinal of buckets[0]
	buckets []bucket
}

// at returns the bucket for time t, appending (or rolling forward to)
// it as needed. Events arrive in archive order, so out-of-order times
// land in the newest bucket rather than allocating history backwards.
func (s *seriesAgg) at(t int64, bucketNs int64) *bucket {
	bt := t - t%bucketNs
	if n := len(s.buckets); n > 0 && s.buckets[n-1].T >= bt {
		return &s.buckets[n-1]
	}
	s.buckets = append(s.buckets, bucket{T: bt})
	if len(s.buckets) > maxBuckets {
		drop := len(s.buckets) - maxBuckets
		s.buckets = append(s.buckets[:0], s.buckets[drop:]...)
		s.base += int64(drop)
	}
	return &s.buckets[len(s.buckets)-1]
}

// acctAgg aggregates one account token.
type acctAgg struct {
	credit uint64 // total hashes credited
	shares uint64 // accepted shares
	paid   uint64 // payout sum
	series seriesAgg
}

type topEntry struct {
	Token  string `json:"token"`
	Hashes uint64 `json:"hashes"`
	Shares uint64 `json:"shares"`
	Paid   uint64 `json:"paid"`
}

type blockEntry struct {
	Height    uint64 `json:"height"`
	Timestamp uint64 `json:"timestamp"`
	Backend   int    `json:"backend"`
	Reward    uint64 `json:"reward"`
}

type banEntry struct {
	TimeNs   int64  `json:"t_ns"`
	Identity string `json:"identity"`
}

// ring is a bounded slice with an absolute base ordinal (same cursor
// contract as seriesAgg).
type ring[T any] struct {
	base  int64
	items []T
}

func (r *ring[T]) push(v T) {
	r.items = append(r.items, v)
	if len(r.items) > maxRecent {
		drop := len(r.items) - maxRecent
		r.items = append(r.items[:0], r.items[drop:]...)
		r.base += int64(drop)
	}
}

// ingest folds every event appended since the last request into the
// aggregates. Called with a.mu held.
func (a *API) ingestLocked() error {
	for {
		n, next, err := a.store.Next(a.cur, a.scratch)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		a.cur = next
		a.version++
		for i := 0; i < n; i++ {
			a.apply(&a.scratch[i])
		}
	}
}

func (a *API) apply(ev *archive.Event) {
	switch ev.Kind {
	case archive.KindShareAccepted:
		acct := a.account(ev.Actor)
		acct.credit += ev.Amount
		acct.shares++
		b := acct.series.at(ev.TimeNs, a.opts.bucketNs)
		b.Hashes += ev.Amount
		b.Accepted++
		pb := a.pool.at(ev.TimeNs, a.opts.bucketNs)
		pb.Hashes += ev.Amount
		pb.Accepted++
	case archive.KindShareStale:
		a.pool.at(ev.TimeNs, a.opts.bucketNs).Stale++
	case archive.KindShareDuplicate:
		a.pool.at(ev.TimeNs, a.opts.bucketNs).Dup++
	case archive.KindShareRejected:
		a.pool.at(ev.TimeNs, a.opts.bucketNs).Rejected++
	case archive.KindBlockFound:
		a.blocks.push(blockEntry{
			Height:    ev.Height,
			Timestamp: ev.Aux,
			Backend:   int(ev.Aux2),
			Reward:    ev.Amount,
		})
	case archive.KindBan:
		a.bans.push(banEntry{TimeNs: ev.TimeNs, Identity: ev.Actor})
	case archive.KindPayout:
		// A federated node's settlement pays the share-chain's PPLNS
		// window, which holds miners who only ever submitted to a peer:
		// their first local event can be a payout.
		a.account(ev.Actor).paid += ev.Amount
	}
}

// account returns token's aggregate, creating it on first sight.
func (a *API) account(token string) *acctAgg {
	acct := a.accounts[token]
	if acct == nil {
		acct = &acctAgg{}
		a.accounts[token] = acct
	}
	return acct
}

// ServeHTTP routes /api/v1/... requests.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	a.requests.Inc()
	defer func() { a.latency.Observe(time.Since(start)) }()

	path := strings.TrimPrefix(r.URL.Path, "/api/v1")
	switch {
	case path == "/pool/series":
		a.servePoolSeries(w, r)
	case path == "/top":
		a.serveTop(w, r)
	case path == "/blocks":
		a.serveBlocks(w, r)
	case path == "/bans":
		a.serveBans(w, r)
	case strings.HasPrefix(path, "/accounts/") && strings.HasSuffix(path, "/series"):
		token := strings.TrimSuffix(strings.TrimPrefix(path, "/accounts/"), "/series")
		if token == "" || strings.Contains(token, "/") {
			http.NotFound(w, r)
			return
		}
		a.serveAccountSeries(w, r, token)
	default:
		http.NotFound(w, r)
	}
}

// page bounds one response.
const (
	defaultLimit = 100
	maxLimit     = 1000
)

func pageParams(r *http.Request, kind string) (start int64, limit int, ok bool) {
	q := r.URL.Query()
	limit = defaultLimit
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return 0, 0, false
		}
		if n > maxLimit {
			n = maxLimit
		}
		limit = n
	}
	if c := q.Get("cursor"); c != "" {
		pos, err := decodeCursor(c, kind)
		if err != nil {
			return 0, 0, false
		}
		start = pos
	}
	return start, limit, true
}

// Cursors are opaque to clients: "<kind>:<absolute ordinal>" base64'd.
// The kind tag stops a cursor minted by one endpoint from being
// replayed against another.
func encodeCursor(kind string, pos int64) string {
	return base64.RawURLEncoding.EncodeToString([]byte(kind + ":" + strconv.FormatInt(pos, 10)))
}

func decodeCursor(s, kind string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, err
	}
	rest, ok := strings.CutPrefix(string(raw), kind+":")
	if !ok {
		return 0, strconv.ErrSyntax
	}
	return strconv.ParseInt(rest, 10, 64)
}

// slicePage pages [start, start+limit) out of a base-indexed slice,
// clamping a cursor that points into trimmed history. It returns the
// page, the next absolute position and whether more items remain.
func slicePage[T any](items []T, base, start int64, limit int) ([]T, int64, bool) {
	if start < base {
		start = base
	}
	end := base + int64(len(items))
	if start >= end {
		return nil, end, false
	}
	lo := start - base
	hi := lo + int64(limit)
	if hi > int64(len(items)) {
		hi = int64(len(items))
	}
	page := make([]T, hi-lo)
	copy(page, items[lo:hi])
	return page, base + hi, base+hi < end
}

func (a *API) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// snapshot runs fn with the aggregates locked and freshly ingested;
// fn must only copy out what the response needs (O(page)).
func (a *API) snapshot(fn func()) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ingestLocked(); err != nil {
		return err
	}
	fn()
	return nil
}

type seriesResponse struct {
	Token      string   `json:"token,omitempty"`
	BucketNs   int64    `json:"bucket_ns"`
	Buckets    []bucket `json:"buckets"`
	NextCursor string   `json:"next_cursor,omitempty"`
}

func (a *API) servePoolSeries(w http.ResponseWriter, r *http.Request) {
	start, limit, ok := pageParams(r, "pool")
	if !ok {
		http.Error(w, "bad cursor or limit", http.StatusBadRequest)
		return
	}
	var (
		page []bucket
		next int64
		more bool
	)
	err := a.snapshot(func() {
		page, next, more = slicePage(a.pool.buckets, a.pool.base, start, limit)
	})
	if err != nil {
		http.Error(w, "archive read failed", http.StatusInternalServerError)
		return
	}
	resp := seriesResponse{BucketNs: a.opts.bucketNs, Buckets: page}
	if more {
		resp.NextCursor = encodeCursor("pool", next)
	}
	a.writeJSON(w, resp)
}

func (a *API) serveAccountSeries(w http.ResponseWriter, r *http.Request, token string) {
	start, limit, ok := pageParams(r, "acct")
	if !ok {
		http.Error(w, "bad cursor or limit", http.StatusBadRequest)
		return
	}
	var (
		page []bucket
		next int64
		more bool
	)
	err := a.snapshot(func() {
		if acct := a.accounts[token]; acct != nil {
			page, next, more = slicePage(acct.series.buckets, acct.series.base, start, limit)
		}
	})
	if err != nil {
		http.Error(w, "archive read failed", http.StatusInternalServerError)
		return
	}
	resp := seriesResponse{Token: token, BucketNs: a.opts.bucketNs, Buckets: page}
	if more {
		resp.NextCursor = encodeCursor("acct", next)
	}
	a.writeJSON(w, resp)
}

type topResponse struct {
	Top        []topEntry `json:"top"`
	NextCursor string     `json:"next_cursor,omitempty"`
}

func (a *API) serveTop(w http.ResponseWriter, r *http.Request) {
	start, limit, ok := pageParams(r, "top")
	if !ok {
		http.Error(w, "bad cursor or limit", http.StatusBadRequest)
		return
	}
	var (
		page []topEntry
		next int64
		more bool
	)
	err := a.snapshot(func() {
		if a.topVersion != a.version || a.top == nil {
			a.top = a.top[:0]
			for token, acct := range a.accounts {
				a.top = append(a.top, topEntry{
					Token: token, Hashes: acct.credit, Shares: acct.shares, Paid: acct.paid,
				})
			}
			sort.Slice(a.top, func(i, j int) bool {
				if a.top[i].Hashes != a.top[j].Hashes {
					return a.top[i].Hashes > a.top[j].Hashes
				}
				return a.top[i].Token < a.top[j].Token
			})
			a.topVersion = a.version
		}
		page, next, more = slicePage(a.top, 0, start, limit)
	})
	if err != nil {
		http.Error(w, "archive read failed", http.StatusInternalServerError)
		return
	}
	resp := topResponse{Top: page}
	if more {
		resp.NextCursor = encodeCursor("top", next)
	}
	a.writeJSON(w, resp)
}

type blocksResponse struct {
	Blocks     []blockEntry `json:"blocks"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

func (a *API) serveBlocks(w http.ResponseWriter, r *http.Request) {
	start, limit, ok := pageParams(r, "blocks")
	if !ok {
		http.Error(w, "bad cursor or limit", http.StatusBadRequest)
		return
	}
	var (
		page []blockEntry
		next int64
		more bool
	)
	err := a.snapshot(func() {
		page, next, more = slicePage(a.blocks.items, a.blocks.base, start, limit)
	})
	if err != nil {
		http.Error(w, "archive read failed", http.StatusInternalServerError)
		return
	}
	resp := blocksResponse{Blocks: page}
	if more {
		resp.NextCursor = encodeCursor("blocks", next)
	}
	a.writeJSON(w, resp)
}

type bansResponse struct {
	Bans       []banEntry `json:"bans"`
	NextCursor string     `json:"next_cursor,omitempty"`
}

func (a *API) serveBans(w http.ResponseWriter, r *http.Request) {
	start, limit, ok := pageParams(r, "bans")
	if !ok {
		http.Error(w, "bad cursor or limit", http.StatusBadRequest)
		return
	}
	var (
		page []banEntry
		next int64
		more bool
	)
	err := a.snapshot(func() {
		page, next, more = slicePage(a.bans.items, a.bans.base, start, limit)
	})
	if err != nil {
		http.Error(w, "archive read failed", http.StatusInternalServerError)
		return
	}
	resp := bansResponse{Bans: page}
	if more {
		resp.NextCursor = encodeCursor("bans", next)
	}
	a.writeJSON(w, resp)
}
