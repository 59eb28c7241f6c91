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

// idForIndex converts a zero-based creation index to its short-link ID.
func idForIndex(i uint64) string {
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

// link is one short link.
type link struct {
	id       string
	token    string // creator's site key; mined hashes are credited to it
	url      string // withheld destination
	required uint64 // hashes the visitor must compute
	done     uint64 // hashes credited so far
}

// resolved reports whether the hash goal has been met.
func (l link) resolved() bool { return l.done >= l.required }

// errNoSuchLink is returned for IDs outside the created space.
var errNoSuchLink = errors.New("coinhive: no such short link")

// LinkStore holds the short-link address space.
type LinkStore struct {
	mu    sync.RWMutex
	links []*link // index == creation order; ID == idForIndex(index)
	byID  map[string]*link
}

// newLinkStore returns an empty store.
func newLinkStore() *LinkStore {
	return &LinkStore{byID: map[string]*link{}}
}

// Create registers a new link and returns its ID.
func (s *LinkStore) Create(token, url string, requiredHashes uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := idForIndex(uint64(len(s.links)))
	l := &link{id: id, token: token, url: url, required: requiredHashes}
	s.links = append(s.links, l)
	s.byID[id] = l
	return id
}

// get returns a snapshot of the link with the given ID.
func (s *LinkStore) get(id string) (link, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.byID[id]
	if !ok {
		return link{}, errNoSuchLink
	}
	return *l, nil
}

// credit adds hashes toward a link's goal, returning the updated snapshot.
func (s *LinkStore) credit(id string, hashes uint64) (link, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.byID[id]
	if !ok {
		return link{}, errNoSuchLink
	}
	l.done += hashes
	return *l, nil
}

// destination reveals the URL only once the goal is met — before that the
// visitor sees nothing but the progress bar.
func (s *LinkStore) destination(id string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.byID[id]
	if !ok {
		return "", errNoSuchLink
	}
	if !l.resolved() {
		return "", fmt.Errorf("coinhive: link %s not yet resolved (%d/%d hashes)", id, l.done, l.required)
	}
	return l.url, nil
}
