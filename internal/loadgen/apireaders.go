package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// apiReaders is the HTTP-client population of an APIReaders scenario: N
// dashboard-like clients paging the archived-history stats API while the
// swarm mines against the same service. They measure what an operator's
// dashboard would see — query latency under miner contention — and
// verify the API stays well-formed (every page 200, cursors terminate).
type apiReaders struct {
	done chan struct{}
	wg   sync.WaitGroup
}

// startAPIReaders launches the scenario's reader goroutines (none when
// the scenario has no APIReaders). The returned handle's stop() is safe
// to call exactly once; readers also exit on Swarm.quit.
func (sw *Swarm) startAPIReaders() *apiReaders {
	r := &apiReaders{done: make(chan struct{})}
	n := sw.cfg.Scenario.APIReaders
	if n <= 0 {
		return r
	}
	base := strings.TrimSuffix(sw.cfg.HTTPURL, "/")
	client := &http.Client{Timeout: readTimeout}
	r.wg.Add(n)
	for i := 0; i < n; i++ {
		go sw.apiReader(r, client, base, i)
	}
	return r
}

// stop ends the readers and waits them out, so the query counters and
// percentiles are final when the caller snapshots the result.
func (r *apiReaders) stop() {
	close(r.done)
	r.wg.Wait()
}

// apiReader cycles through the endpoints a dashboard polls. The account
// series targets one of the swarm's own site keys, so its history fills
// as the run progresses.
func (sw *Swarm) apiReader(r *apiReaders, client *http.Client, base string, idx int) {
	defer r.wg.Done()
	acct := fmt.Sprintf("swarm-%s-%04d", sw.cfg.Scenario.Name, idx)
	paths := []string{
		"/api/v1/pool/series?limit=64",
		"/api/v1/top",
		"/api/v1/blocks",
		"/api/v1/bans",
		"/api/v1/accounts/" + acct + "/series?limit=64",
	}
	for seq := 0; ; seq++ {
		select {
		case <-r.done:
			return
		case <-sw.quit:
			return
		default:
		}
		sw.apiPage(client, base, paths[seq%len(paths)])
		// A dashboard's polling cadence, not a tight loop: the readers
		// must contend with the miners, not drown them.
		select {
		case <-r.done:
			return
		case <-sw.quit:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// apiPage issues one query and follows next_cursor to the end of the
// collection, counting and timing every page. Any non-200, transport
// failure or malformed body is an API error; a cursor chain that fails
// to terminate within the page cap is too (the API pages a bounded
// history, so an unbounded chain means a broken cursor).
func (sw *Swarm) apiPage(client *http.Client, base, path string) {
	cursor := ""
	for page := 0; page < 64; page++ {
		u := base + path
		if cursor != "" {
			sep := "?"
			if strings.Contains(path, "?") {
				sep = "&"
			}
			u += sep + "cursor=" + url.QueryEscape(cursor)
		}
		t0 := time.Now()
		resp, err := client.Get(u)
		if err != nil {
			sw.apiError(u, 0, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		sw.apiNs.Observe(time.Since(t0))
		sw.apiQueries.Inc()
		if resp.StatusCode != http.StatusOK {
			sw.apiError(u, resp.StatusCode, nil)
			return
		}
		if err != nil {
			sw.apiError(u, resp.StatusCode, err)
			return
		}
		var next struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &next); err != nil {
			sw.apiError(u, resp.StatusCode, err)
			return
		}
		if next.NextCursor == "" || next.NextCursor == cursor {
			return
		}
		cursor = next.NextCursor
	}
	sw.apiError(base+path, 0, fmt.Errorf("cursor chain did not terminate within 64 pages"))
}

// apiError counts a stats-API failure and keeps a sample for diagnosis.
func (sw *Swarm) apiError(url string, status int, err error) {
	sw.apiErrors.Inc()
	sw.errMu.Lock()
	if len(sw.errSamples) < 8 {
		sw.errSamples = append(sw.errSamples, fmt.Sprintf("api %s: status %d: %v", url, status, err))
	}
	sw.errMu.Unlock()
}
