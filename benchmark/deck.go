package main

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/blockchain"
	"repro/internal/cryptonight"
	"repro/internal/session"
	"repro/internal/stratum"
)

// deck is a set of valid shares for one PoW blob, ground once in set-up
// so the measured loop pays codec cost only: at share difficulty 1 every
// hash meets the target, so a deck costs one CryptoNight hash per nonce.
type deck struct {
	nonces  []uint32
	results [][32]byte
}

// splitmix is the seed-derivation step for everything the benchmark
// generates (site keys, nonce bases).
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// grindDecks grinds one deck of size nonces for every job, on
// pinnedProcs goroutines. Decks are keyed by the wire blob the pool
// sent, which names the PoW input independent of the job ID. Two jobs
// naming one blob (federated nodes booted within the same second serve
// identical templates) are ground twice all the same: set-up time must
// not depend on where a second boundary fell. size must exceed the
// pool's per-account duplicate memo (128) and the federated workload's
// in-flight window (64) by a wide margin.
func grindDecks(jobs []session.Job, size int, seed uint64) (map[string]*deck, error) {
	variant := blockchain.SimParams().PowVariant
	decks := map[string]*deck{}
	ground := make([]*deck, len(jobs))
	for i := range jobs {
		ground[i] = &deck{nonces: make([]uint32, size), results: make([][32]byte, size)}
	}
	base := uint32(splitmix(seed))
	errs := make([]error, pinnedProcs)
	var wg sync.WaitGroup
	for g := 0; g < pinnedProcs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := cryptonight.NewHasher(variant)
			if err != nil {
				errs[g] = err
				return
			}
			for k, j := range jobs {
				d := ground[k]
				blob := append([]byte(nil), j.Blob...)
				for i := g; i < size; i += pinnedProcs {
					nonce := base + uint32(i)
					binary.LittleEndian.PutUint32(blob[j.NonceOffset:], nonce)
					sum := h.Sum(blob)
					if !cryptonight.CheckCompactTarget(sum, j.Target) {
						errs[g] = fmt.Errorf("deck: nonce %d misses the share target (share difficulty must be 1)", nonce)
						return
					}
					d.nonces[i], d.results[i] = nonce, sum
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k, j := range jobs {
		decks[j.WireBlob] = ground[k]
	}
	return decks, nil
}

// miner is one generator connection replaying decks. Every pass logs in
// afresh under a new seed-derived site key: the pool's duplicate memo is
// per account, so a fresh account makes the whole deck valid again.
type miner struct {
	url    string // ws://host/proxyN or tcp://host:port
	decks  map[string]*deck
	prefix string // seed- and connection-derived site-key prefix

	sess *session.Session
	job  session.Job
	deck *deck
	idx  int
	pass int
	key  string

	// shares is accepted shares per site key, for share-accept's credit
	// check.
	shares map[string]int64
}

// maxBlobCycle bounds the set-up probe: the pool serves 8 templates on
// each of 16 backends, so no rotation is longer than 128.
const maxBlobCycle = 128

// newMiners opens one session per URL with a deck for every blob that
// URL serves, so that a relogin inside the measured loop never meets a
// blob without one. The pool rotates a connection's blob with every
// accept (template slot for a ws endpoint; backend and slot for the TCP
// listener), so set-up logs in on each URL under throwaway keys until a
// blob comes round again, and grinds a deck of size nonces for each
// distinct blob it was served. On an error nothing stays open.
func newMiners(urls []string, size int, o options) ([]*miner, error) {
	var (
		miners []*miner
		jobs   []session.Job
		probed = map[string]bool{}
	)
	closeAll := func() {
		for _, m := range miners {
			m.close()
		}
	}
	for c, url := range urls {
		m := &miner{url: url, prefix: fmt.Sprintf("bench-%x-c%d", o.seed, c), shares: map[string]int64{}}
		miners = append(miners, m)
		first := ""
		for probe := 0; !probed[url]; probe++ {
			job, err := m.dial(fmt.Sprintf("%s-probe%d", m.prefix, probe))
			if err != nil {
				closeAll()
				return nil, err
			}
			_ = m.sess.Close()
			m.sess = nil
			if job.WireBlob == first {
				break
			}
			if probe == maxBlobCycle {
				closeAll()
				return nil, fmt.Errorf("%s: the first blob did not come round again in %d logins", url, maxBlobCycle)
			}
			if first == "" {
				first = job.WireBlob
			}
			jobs = append(jobs, job)
		}
		probed[url] = true
	}
	decks, err := grindDecks(jobs, size, o.seed)
	if err != nil {
		return nil, err
	}
	for _, m := range miners {
		m.decks = decks
		if err := m.login(); err != nil {
			closeAll()
			return nil, err
		}
	}
	return miners, nil
}

// dial opens a session under key and logs in.
func (m *miner) dial(key string) (session.Job, error) {
	sess, err := session.Dial(m.url, stratum.Auth{SiteKey: key, Type: "anonymous"})
	if err != nil {
		return session.Job{}, err
	}
	sess.Timeout = ioTimeout
	_, job, err := sess.Login()
	if err != nil {
		_ = sess.Abort()
		return session.Job{}, err
	}
	m.sess = sess
	return job, nil
}

// login starts the next pass: a fresh session under the next site key.
func (m *miner) login() error {
	m.pass++
	m.key = fmt.Sprintf("%s-p%d", m.prefix, m.pass)
	job, err := m.dial(m.key)
	if err != nil {
		return err
	}
	m.job, m.deck, m.idx = job, m.decks[job.WireBlob], 0
	if m.deck == nil {
		return fmt.Errorf("miner %s: pass %d was served a blob the set-up probe never saw", m.prefix, m.pass)
	}
	return nil
}

// spent reports whether the next share needs a fresh login.
func (m *miner) spent() bool { return m.idx == len(m.deck.nonces) }

// share returns the next deck entry, logging in again when the deck is
// spent.
func (m *miner) share() (nonce uint32, result [32]byte, err error) {
	if m.spent() {
		_ = m.sess.Close()
		if err := m.login(); err != nil {
			return 0, result, err
		}
	}
	nonce, result = m.deck.nonces[m.idx], m.deck.results[m.idx]
	m.idx++
	return nonce, result, nil
}

func (m *miner) close() {
	if m.sess != nil {
		_ = m.sess.Close()
	}
}
