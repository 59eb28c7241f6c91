package coinhive

import (
	"errors"
	"fmt"
	"sync"
)

// Short links live at https://cnhv.co/[a-z0-9]{1,4} and are assigned
// increasing IDs (§4.1), "which enables one to enumerate the link address
// space" — the property the paper's scrape exploits and our enumerator
// reproduces. IDs count in base 36 with digit alphabet 0-9a-z, shortest
// representation first: 0..z, 10..zz, ...

const base36 = "0123456789abcdefghijklmnopqrstuvwxyz"

// IDForIndex converts a zero-based creation index to its short-link ID.
func IDForIndex(i uint64) string {
	n := i
	var buf [8]byte
	pos := len(buf)
	for {
		pos--
		buf[pos] = base36[n%36]
		n /= 36
		if n == 0 {
			break
		}
		n-- // shorter strings precede longer ones ("z" then "10")
	}
	return string(buf[pos:])
}

// Link is one short link.
type Link struct {
	ID       string
	Token    string // creator's site key; mined hashes are credited to it
	URL      string // withheld destination
	Required uint64 // hashes the visitor must compute
	Done     uint64 // hashes credited so far
}

// Resolved reports whether the hash goal has been met.
func (l Link) Resolved() bool { return l.Done >= l.Required }

// ErrNoSuchLink is returned for IDs outside the created space.
var ErrNoSuchLink = errors.New("coinhive: no such short link")

// LinkStore holds the short-link address space.
type LinkStore struct {
	mu    sync.RWMutex
	links []*Link // index == creation order; ID == IDForIndex(index)
	byID  map[string]*Link
}

// NewLinkStore returns an empty store.
func NewLinkStore() *LinkStore {
	return &LinkStore{byID: map[string]*Link{}}
}

// Create registers a new link and returns its ID.
func (s *LinkStore) Create(token, url string, requiredHashes uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := IDForIndex(uint64(len(s.links)))
	l := &Link{ID: id, Token: token, URL: url, Required: requiredHashes}
	s.links = append(s.links, l)
	s.byID[id] = l
	return id
}

// Get returns a snapshot of the link with the given ID.
func (s *LinkStore) Get(id string) (Link, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.byID[id]
	if !ok {
		return Link{}, ErrNoSuchLink
	}
	return *l, nil
}

// Credit adds hashes toward a link's goal, returning the updated snapshot.
func (s *LinkStore) Credit(id string, hashes uint64) (Link, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.byID[id]
	if !ok {
		return Link{}, ErrNoSuchLink
	}
	l.Done += hashes
	return *l, nil
}

// Destination reveals the URL only once the goal is met — before that the
// visitor sees nothing but the progress bar.
func (s *LinkStore) Destination(id string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.byID[id]
	if !ok {
		return "", ErrNoSuchLink
	}
	if !l.Resolved() {
		return "", fmt.Errorf("coinhive: link %s not yet resolved (%d/%d hashes)", id, l.Done, l.Required)
	}
	return l.URL, nil
}

// Len returns the number of created links.
func (s *LinkStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.links)
}

// Snapshot returns copies of all links in creation order.
func (s *LinkStore) Snapshot() []Link {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Link, len(s.links))
	for i, l := range s.links {
		out[i] = *l
	}
	return out
}
