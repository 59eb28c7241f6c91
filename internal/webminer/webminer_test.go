package webminer

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/cryptonight"
	"repro/internal/simclock"
)

// startService spins up a full Coinhive clone over HTTP+WebSocket.
func startService(t *testing.T) (*httptest.Server, *coinhive.Pool) {
	t.Helper()
	p := blockchain.SimParams()
	p.MinDifficulty = 1 << 40 // no accidental blocks from test shares
	chain, err := blockchain.NewChain(p, 1_525_000_000, blockchain.AddressFromString("genesis"))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:               chain,
		Wallet:              blockchain.AddressFromString("coinhive"),
		Clock:               simclock.New(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)),
		ShareDifficulty:     16,
		LinkShareDifficulty: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coinhive.NewServer(pool))
	t.Cleanup(srv.Close)
	return srv, pool
}

func wsEndpoint(srv *httptest.Server, n int) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http") + "/proxy" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestMineSharesEndToEnd(t *testing.T) {
	srv, pool := startService(t)
	c := &Client{
		URL:     wsEndpoint(srv, 0),
		SiteKey: "integration-site",
		Variant: cryptonight.Test,
	}
	res, err := c.Mine(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharesAccepted != 3 {
		t.Errorf("accepted = %d, want 3", res.SharesAccepted)
	}
	if res.HashesComputed < 3 {
		t.Errorf("hashes computed = %d", res.HashesComputed)
	}
	a, ok := pool.AccountSnapshot("integration-site")
	if !ok || a.TotalHashes != 3*16 {
		t.Errorf("pool-side account = %+v", a)
	}
	if res.CreditedHashes != int64(a.TotalHashes) {
		t.Errorf("client credit %d != pool credit %d", res.CreditedHashes, a.TotalHashes)
	}
}

func TestResolveShortLinkEndToEnd(t *testing.T) {
	srv, pool := startService(t)
	id := pool.Links().Create("link-creator", "https://youtu.be/dQw4w9WgXcQ", 24)

	// Scrape the interstitial the way the paper's crawler did.
	resp, err := http.Get(srv.URL + "/cn/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	info, err := ParseLinkPage(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if info.Token != "link-creator" || info.Required != 24 || info.ID != id {
		t.Errorf("scraped info = %+v", info)
	}

	// Resolve it with the non-browser miner.
	c := &Client{
		URL:     wsEndpoint(srv, 5),
		SiteKey: info.Token,
		LinkID:  info.ID,
		Variant: cryptonight.Test,
	}
	res, err := c.Mine(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolvedURL != "https://youtu.be/dQw4w9WgXcQ" {
		t.Errorf("resolved URL = %q", res.ResolvedURL)
	}
	// 24 required at link-share difficulty 8 → exactly 3 accepted shares.
	if res.SharesAccepted != 3 {
		t.Errorf("shares = %d, want 3", res.SharesAccepted)
	}
}

// TestLinkResolvesPastDuplicateShare resolves nine links of one token on
// one endpoint in turn. Sessions rotate over the backend's eight
// templates, so the ninth mines the first one's blob from the same nonce
// cursor and its first share is already in the account's memo: the pool
// answers "duplicate share" and sends no fresh job, and the miner must
// grind on from its advanced cursor.
func TestLinkResolvesPastDuplicateShare(t *testing.T) {
	srv, pool := startService(t)
	for i := 0; i < 9; i++ {
		url := "https://example.org/" + itoa(i)
		c := &Client{
			URL:     wsEndpoint(srv, 3),
			SiteKey: "dup-creator",
			LinkID:  pool.Links().Create("dup-creator", url, 8),
			Variant: cryptonight.Test,
		}
		res, err := c.Mine(0)
		if err != nil {
			t.Fatalf("link %d: %v", i, err)
		}
		if res.ResolvedURL != url {
			t.Fatalf("link %d resolved to %q, want %q", i, res.ResolvedURL, url)
		}
	}
}

func TestMinerAssetsServed(t *testing.T) {
	srv, _ := startService(t)
	resp, err := http.Get(srv.URL + "/lib/coinhive.min.js")
	if err != nil {
		t.Fatal(err)
	}
	js, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(js), "CoinHive") {
		t.Error("JS asset lacks CoinHive symbol")
	}
	resp, err = http.Get(srv.URL + "/lib/cryptonight.wasm")
	if err != nil {
		t.Fatal(err)
	}
	bin, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(bin) < 8 || string(bin[:4]) != "\x00asm" {
		t.Error("Wasm asset is not a wasm binary")
	}
}

func TestParseLinkPageRejectsOrdinaryHTML(t *testing.T) {
	if _, err := ParseLinkPage("<html><body>hello</body></html>"); err == nil {
		t.Error("ordinary page parsed as interstitial")
	}
}

func TestMineFailsCleanlyOnBadEndpoint(t *testing.T) {
	srv, _ := startService(t)
	c := &Client{URL: wsEndpoint(srv, 999), SiteKey: "x", Variant: cryptonight.Test}
	if _, err := c.Mine(1); err == nil {
		t.Error("mining against a nonexistent endpoint succeeded")
	}
}

func TestCaptchaEndToEnd(t *testing.T) {
	srv, pool := startService(t)
	cap := pool.Captchas().Create("form-site", 16) // two 8-hash shares

	c := &Client{
		URL:       wsEndpoint(srv, 9),
		SiteKey:   "form-site",
		captchaID: cap.ID,
		Variant:   cryptonight.Test,
	}
	res, err := c.Mine(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolvedURL == "" {
		t.Fatal("no captcha token received")
	}
	// The widget's token must verify exactly once server-to-server.
	body := `{"id":"` + cap.ID + `","token":"` + res.ResolvedURL + `"}`
	resp, err := http.Post(srv.URL+"/api/captcha/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Success bool   `json:"success"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !out.Success {
		t.Fatalf("verify failed: %s", out.Error)
	}
	// Replay must be rejected.
	resp, err = http.Post(srv.URL+"/api/captcha/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out.Success {
		t.Error("replayed captcha token accepted")
	}
}

func TestMineWithMultipleThreads(t *testing.T) {
	srv, pool := startService(t)
	c := &Client{
		URL:     wsEndpoint(srv, 2),
		SiteKey: "threaded-site",
		Variant: cryptonight.Test,
		Threads: 4,
	}
	res, err := c.Mine(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharesAccepted != 4 {
		t.Errorf("accepted = %d, want 4", res.SharesAccepted)
	}
	// Pool-side verification guarantees every share was genuine; the
	// threaded search must not have produced bogus nonces.
	a, ok := pool.AccountSnapshot("threaded-site")
	if !ok || a.TotalHashes != 4*16 {
		t.Errorf("account = %+v", a)
	}
}

func TestFleetResolvesLinksConcurrently(t *testing.T) {
	srv, pool := startService(t)
	const n = 12
	tasks := make([]Task, n)
	urls := make([]string, n)
	for i := range tasks {
		urls[i] = "https://example.org/file-" + itoa(i)
		id := pool.Links().Create("fleet-creator", urls[i], 16) // two 8-hash shares
		tasks[i] = Task{
			URL:     wsEndpoint(srv, i%pool.NumEndpoints()),
			SiteKey: "fleet-creator",
			LinkID:  id,
		}
	}
	f := &Fleet{Variant: cryptonight.Test, workers: 4}
	results := f.Run(tasks)
	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("task %d: %v", i, r.Err)
			continue
		}
		if r.Result.ResolvedURL != urls[i] {
			t.Errorf("task %d resolved %q, want %q", i, r.Result.ResolvedURL, urls[i])
		}
	}
	st := pool.StatsSnapshot()
	if st.SharesOK < 2*n {
		t.Errorf("pool accepted %d shares, want >= %d", st.SharesOK, 2*n)
	}
}

func TestFleetMinesSharesAcrossSites(t *testing.T) {
	srv, pool := startService(t)
	tasks := []Task{
		{URL: wsEndpoint(srv, 0), SiteKey: "fleet-a", wantShares: 2},
		{URL: wsEndpoint(srv, 7), SiteKey: "fleet-b", wantShares: 3},
		{URL: wsEndpoint(srv, 31), SiteKey: "fleet-a", wantShares: 1},
	}
	f := &Fleet{Variant: cryptonight.Test}
	results := f.Run(tasks)
	total := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("task %d: %v", i, r.Err)
		}
		total += r.Result.SharesAccepted
	}
	if total != 6 {
		t.Errorf("accepted %d shares, want 6", total)
	}
	a, _ := pool.AccountSnapshot("fleet-a")
	b, _ := pool.AccountSnapshot("fleet-b")
	if a.TotalHashes != 3*16 || b.TotalHashes != 3*16 {
		t.Errorf("credits = %d/%d, want 48/48", a.TotalHashes, b.TotalHashes)
	}
}
