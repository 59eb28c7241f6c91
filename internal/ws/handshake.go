package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// guid is the fixed handshake GUID from RFC 6455 §1.3.
const guid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// handshakeTimeout bounds Dial's opening handshake I/O.
const handshakeTimeout = 30 * time.Second

// acceptKey computes the Sec-WebSocket-Accept value for a client key.
func acceptKey(clientKey string) string {
	h := sha1.Sum([]byte(clientKey + guid))
	return base64.StdEncoding.EncodeToString(h[:])
}

// errNotWebSocket is returned by Upgrade for plain HTTP requests.
var errNotWebSocket = errors.New("ws: request is not a websocket upgrade")

func headerContainsToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Upgrade performs the server side of the opening handshake, hijacking the
// HTTP connection. On success the returned Conn owns the transport.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet ||
		!headerContainsToken(r.Header, "Connection", "Upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, errNotWebSocket
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("ws: unsupported version %q", r.Header.Get("Sec-WebSocket-Version"))
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("ws: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "hijacking unsupported", http.StatusInternalServerError)
		return nil, errors.New("ws: response writer does not support hijacking")
	}
	nc, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		nc.Close()
		return nil, err
	}
	if err := rw.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	return newConn(nc, rw.Reader, false), nil
}

// Dial connects to a ws:// or wss:// URL and performs the client handshake.
// For wss, tlsCfg may carry test certificates; nil uses defaults.
func Dial(rawURL string, tlsCfg *tls.Config) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("ws: parse url: %w", err)
	}
	var nc net.Conn
	host := u.Host
	switch u.Scheme {
	case "ws":
		if u.Port() == "" {
			host = net.JoinHostPort(u.Hostname(), "80")
		}
		nc, err = net.Dial("tcp", host)
	case "wss":
		if u.Port() == "" {
			host = net.JoinHostPort(u.Hostname(), "443")
		}
		nc, err = tls.Dial("tcp", host, tlsCfg)
	default:
		return nil, fmt.Errorf("ws: unsupported scheme %q", u.Scheme)
	}
	if err != nil {
		return nil, err
	}
	// Bound the opening handshake: a peer that accepts TCP but never
	// answers the upgrade must not wedge the caller forever (load
	// generators dial by the thousand). Cleared once the Conn exists.
	if err := nc.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		nc.Close()
		return nil, err
	}
	var keyBytes [16]byte
	if _, err := rand.Read(keyBytes[:]); err != nil {
		nc.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := nc.Write([]byte(req)); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: read handshake response: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake rejected: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != acceptKey(key) {
		nc.Close()
		return nil, fmt.Errorf("ws: bad Sec-WebSocket-Accept %q", got)
	}
	if err := nc.SetDeadline(time.Time{}); err != nil {
		nc.Close()
		return nil, err
	}
	return newConn(nc, br, true), nil
}
