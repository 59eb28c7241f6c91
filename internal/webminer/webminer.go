// Package webminer replicates the working principle of the Coinhive web
// miner outside a browser — the tool the paper built to resolve short links
// at scale ("we replicate the working principle of the web miner in a
// non-web implementation that can resolve multiple short links in
// parallel", §4.1). It speaks the stratum dialect over WebSockets, reverts
// the job-blob obfuscation, searches nonces with CryptoNight and submits
// qualifying shares.
package webminer

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cryptonight"
	"repro/internal/session"
	"repro/internal/stratum"
)

// Client mines against one pool endpoint.
type Client struct {
	// URL is the ws:// endpoint (e.g. ws://host:port/proxy0).
	URL string
	// SiteKey is the token shares are credited to.
	SiteKey string
	// LinkID, when set, attaches the session to a short link's hash goal.
	LinkID string
	// captchaID, when set, attaches the session to a proof-of-work captcha;
	// the session ends when the service pushes the verification token
	// (surfaced in Result.ResolvedURL).
	captchaID string
	// Variant must match the pool chain's PoW profile.
	Variant cryptonight.Variant
	// maxHashesPerJob bounds the nonce search per job (0 = 1<<22).
	maxHashesPerJob int
	// Threads splits the nonce search across workers, each with its own
	// scratchpad — the paper's reference laptop reaches its 20 H/s "with 4
	// threads". 0 or 1 means single-threaded.
	Threads int

	// cursor is the rolling nonce-search position. Jobs for the same
	// template repeat the same blob; continuing the sweep instead of
	// restarting it is what the real miner's per-worker nonce counter
	// does, and it is what lets a long session eventually meet the
	// network difficulty rather than rediscovering one share forever.
	cursor uint32
}

// Result summarises a mining session.
type Result struct {
	SharesAccepted int
	HashesComputed int64
	CreditedHashes int64  // pool-side credit after the last accept
	ResolvedURL    string // destination if a short link resolved
}

// Mine connects, authenticates and keeps submitting shares until
// wantShares have been accepted or (when LinkID is set) the link resolves.
// The dial/login/job-decode plumbing lives in internal/session, shared
// with the benchmark's clients; the URL scheme picks the dialect (ws:// for
// the browser dialect, tcp:// for raw JSON-RPC stratum), and the mining
// loop adapts to the dialect's clocking: ws hands a job back after every
// submit, TCP stratum pushes jobs only when the chain tip moves, so a
// TCP session keeps grinding its current job between pushes.
func (c *Client) Mine(wantShares int) (Result, error) {
	var res Result
	user := ""
	switch {
	case c.LinkID != "":
		user = "link:" + c.LinkID
	case c.captchaID != "":
		user = "captcha:" + c.captchaID
	}
	sess, err := session.Dial(c.URL, stratum.Auth{SiteKey: c.SiteKey, Type: "anonymous", User: user})
	if err != nil {
		return res, err
	}
	defer sess.Close()
	serverClocked := sess.ServerClocked()

	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	// Scratchpads come from the per-variant pool, so a fleet resolving many
	// links reuses a small working set of pads instead of allocating
	// per-session.
	hashers := make([]*cryptonight.Hasher, threads)
	for i := range hashers {
		h, err := cryptonight.GetHasher(c.Variant)
		if err != nil {
			for _, held := range hashers[:i] {
				cryptonight.PutHasher(held)
			}
			return res, err
		}
		hashers[i] = h
	}
	defer func() {
		for _, h := range hashers {
			cryptonight.PutHasher(h)
		}
	}()
	maxHashes := c.maxHashesPerJob
	if maxHashes == 0 {
		maxHashes = 1 << 22
	}

	// A server-clocked pool drops connections silent for longer than its
	// keepalive window, and a long nonce grind is exactly such a silence;
	// a ticker pings from the side (the transport serialises the writes).
	// It starts only after login completes — the dialect rejects
	// keepalives from unauthenticated sessions.
	var kaStop chan struct{}
	defer func() {
		if kaStop != nil {
			close(kaStop)
		}
	}()
	startKeepalive := func() {
		if !serverClocked || kaStop != nil {
			return
		}
		kaStop = make(chan struct{})
		go func(stop chan struct{}) {
			tick := time.NewTicker(session.KeepaliveInterval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if sess.Keepalive() != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}(kaStop)
	}

	// haveJob gates the grind; submitted marks an in-flight submit whose
	// resolution (accept, stale, error) the read loop below must observe
	// before the next grind.
	var job session.Job
	haveJob := false
	for {
		submitted := false
		if haveJob {
			nonce, result, hashes, found := solveParallel(hashers, &job, c.cursor, maxHashes)
			c.cursor = nonce + 1
			res.HashesComputed += int64(hashes)
			if !found {
				return res, fmt.Errorf("webminer: exhausted %d hashes without a share", maxHashes)
			}
			if err := sess.Submit(job.ID, nonce, result); err != nil {
				return res, err
			}
			submitted = true
			if !serverClocked {
				haveJob = false // the reply job is this dialect's go-ahead
			}
		}
		// Read until this turn resolves. With no submit in flight (the
		// opening handshake) that is the first job; after a submit, the
		// client-clocked dialect resolves on the next job (the server
		// always sends one) and the server-clocked one on an accept or a
		// stale re-job. Anything pushed in between (link resolution,
		// fresh work) is handled in place.
		accepted, stale := false, false
		for {
			if submitted && serverClocked {
				// Drain anything the server flushed together with the
				// resolution (a link_resolved/captcha_verified riding a
				// submit accept) before grinding again — those frames are
				// already buffered, so this never blocks.
				if (accepted || (stale && haveJob)) && !sess.Buffered() {
					break
				}
			} else if haveJob {
				break
			}
			env, err := sess.ReadEnvelope()
			if err != nil {
				return res, err
			}
			switch env.Type {
			case stratum.TypeAuthed:
				// Session established; job follows.
			case stratum.TypeHashAccepted:
				var ha stratum.HashAccepted
				if err := env.Decode(&ha); err != nil {
					return res, err
				}
				res.SharesAccepted++
				res.CreditedHashes = ha.Hashes
				if c.LinkID == "" && c.captchaID == "" && res.SharesAccepted >= wantShares {
					return res, nil
				}
				accepted = true
			case stratum.TypeLinkResolved:
				var lr stratum.LinkResolved
				if err := env.Decode(&lr); err != nil {
					return res, err
				}
				res.ResolvedURL = lr.URL
				return res, nil
			case stratum.TypeCaptchaVerified:
				var cv stratum.CaptchaVerified
				if err := env.Decode(&cv); err != nil {
					return res, err
				}
				res.ResolvedURL = cv.Token
				return res, nil
			case stratum.TypeJob:
				var j stratum.Job
				if err := env.Decode(&j); err != nil {
					return res, err
				}
				js, err := session.DecodeJob(j)
				if err != nil {
					return res, err
				}
				job, haveJob = js, true
				startKeepalive()
			case stratum.TypeError:
				var e stratum.Error
				_ = env.Decode(&e)
				if serverClocked && e.Error == stratum.StaleJobMessage {
					// The tip outran our job; the replacement notification
					// follows. Invalidate the current job until it arrives.
					stale, haveJob = true, false
					continue
				}
				return res, fmt.Errorf("webminer: pool error: %s", e.Error)
			}
		}
	}
}

// solveParallel stripes the nonce space across the worker hashers: worker
// w scans start+w, start+w+T, start+w+2T, … — the layout the web miner's
// thread pool uses so workers never duplicate an attempt. Each worker
// grinds in short bursts of the cryptonight kernel, checking for a
// sibling's win between bursts.
func solveParallel(hashers []*cryptonight.Hasher, job *session.Job, start uint32, maxHashes int) (nonce uint32, result [32]byte, hashes int, found bool) {
	if len(hashers) == 1 {
		return solve(hashers[0], job, start, maxHashes)
	}
	type hit struct {
		nonce  uint32
		sum    [32]byte
		hashes int
		found  bool
	}
	stride := uint32(len(hashers))
	perWorker := maxHashes / len(hashers)
	// burst is the number of nonces ground between cancellation checks —
	// long enough to amortise the kernel entry, short enough that losing
	// workers stop promptly after a share is found.
	const burst = 16
	results := make(chan hit, len(hashers))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := range hashers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := hashers[w]
			n := start + uint32(w)
			local := 0
			for local < perWorker {
				select {
				case <-done:
					results <- hit{hashes: local}
					return
				default:
				}
				batch := perWorker - local
				if batch > burst {
					batch = burst
				}
				bn, sum, hs, ok := h.GrindStride(job.Blob, job.NonceOffset, job.Target, n, stride, batch)
				local += hs
				if ok {
					results <- hit{nonce: bn, sum: sum, hashes: local, found: true}
					return
				}
				n += uint32(batch) * stride
			}
			results <- hit{hashes: local}
		}(w)
	}
	var winner *hit
	for range hashers {
		r := <-results
		hashes += r.hashes
		if r.found && winner == nil {
			rr := r
			winner = &rr
			close(done)
		}
	}
	wg.Wait()
	if winner == nil {
		return 0, result, hashes, false
	}
	return winner.nonce, winner.sum, hashes, true
}

// solve searches nonces sequentially from start until the compact target
// is met.
func solve(h *cryptonight.Hasher, job *session.Job, start uint32, maxHashes int) (nonce uint32, result [32]byte, hashes int, found bool) {
	return h.Grind(job.Blob, job.NonceOffset, job.Target, start, maxHashes)
}

// LinkPageInfo is what the paper's scraper extracted from every cnhv.co
// interstitial: the creator's token and the configured hash price.
type LinkPageInfo struct {
	ID       string
	Token    string
	Required uint64
}

// ParseLinkPage extracts the token and required hash count from a
// short-link progress page.
func ParseLinkPage(html string) (LinkPageInfo, error) {
	var info LinkPageInfo
	var ok1, ok2, ok3 bool
	info.Token, ok1 = attrValue(html, `data-key="`)
	hashStr, ok2 := attrValue(html, `data-hashes="`)
	info.ID, ok3 = attrValue(html, `data-link="`)
	if !ok1 || !ok2 || !ok3 {
		return info, errors.New("webminer: page is not a short-link interstitial")
	}
	n, err := strconv.ParseUint(hashStr, 10, 64)
	if err != nil {
		return info, fmt.Errorf("webminer: bad data-hashes: %w", err)
	}
	info.Required = n
	return info, nil
}

func attrValue(html, marker string) (string, bool) {
	i := strings.Index(html, marker)
	if i < 0 {
		return "", false
	}
	rest := html[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}
