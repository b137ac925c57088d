package l7

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/health"
)

// relayRig is a proxy-mode redirector over the given backends. Tests drive
// its proxy path through relayFront so that admission, whose credit follows
// estimated demand, never refuses a request a test counts on. Its org
// "zero" maps to a principal without an agreement: every request for it
// is refused.
func relayRig(t testing.TB, hc *health.Options, backends ...string) (*Redirector, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 1e6)
	a := s.MustAddPrincipal("A", 0)
	z := s.MustAddPrincipal("Z", 0)
	s.MustSetAgreement(sp, a, 0.9, 1)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp, Window: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRedirector(RedirectorConfig{
		Engine: eng, Addr: "127.0.0.1:0", Proxy: true, Health: hc,
		Orgs:     map[string]agreement.Principal{"acme": a, "zero": z},
		Backends: map[agreement.Principal][]string{sp: backends},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, sp
}

// testFront is a second service listener of a redirector whose /svc/x/
// requests skip admission: each goes to the owner's first backend (failing
// over from there), the path after /svc/x/ as the tail.
type testFront struct {
	URL string // base URL, to which a test appends "/<tail>"
	s   *server
}

func (f *testFront) Close() { f.s.close() }

func relayFront(t testing.TB, r *Redirector, owner agreement.Principal) *testFront {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &testFront{URL: "http://" + ln.Addr().String() + "/svc/x"}
	f.s = newServer(r, ln, func(c *inConn, _, tail []byte) {
		r.proxy(c, owner, r.backends[owner][0], tail, nil)
	})
	go f.s.serve()
	t.Cleanup(f.Close)
	return f
}

// cannedBackend answers every request head it reads with the same bytes.
// It reads and writes without allocating, so allocation counts taken around
// it are the relay's own.
type cannedBackend struct {
	ln         net.Listener
	reply      []byte
	closeAfter bool // close the connection after each reply, unannounced
	accepted   atomic.Int64
	requests   atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newCannedBackend(t testing.TB, reply string, closeAfter bool) *cannedBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &cannedBackend{ln: ln, reply: []byte(reply), closeAfter: closeAfter, conns: map[net.Conn]struct{}{}}
	b.wg.Add(1)
	go b.acceptLoop()
	t.Cleanup(b.close)
	return b
}

func (b *cannedBackend) url() string { return "http://" + b.ln.Addr().String() }

func (b *cannedBackend) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.accepted.Add(1)
		b.mu.Lock()
		b.conns[conn] = struct{}{}
		b.mu.Unlock()
		b.wg.Add(1)
		go b.serve(conn)
	}
}

func (b *cannedBackend) serve(conn net.Conn) {
	defer b.wg.Done()
	defer func() {
		conn.Close()
		b.mu.Lock()
		delete(b.conns, conn)
		b.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 4096)
	for {
		for { // one request head
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(line) <= 2 {
				break
			}
		}
		b.requests.Add(1)
		if _, err := conn.Write(b.reply); err != nil || b.closeAfter {
			return
		}
	}
}

// open counts connections not yet closed by this side.
func (b *cannedBackend) open() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.conns)
}

func (b *cannedBackend) close() {
	b.ln.Close()
	b.mu.Lock()
	for c := range b.conns {
		c.Close()
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// rawClient is a keep-alive HTTP/1.1 client that sends one fixed request
// and reads its reply without allocating, so allocation counts taken around
// it are the server's.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func newRawClient(t testing.TB, addr, target string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(addr, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req := "GET " + target + " HTTP/1.1\r\nHost: " + addr + "\r\nUser-Agent: alloc-test\r\n\r\n"
	return &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 8<<10), req: []byte(req)}
}

// do sends the request and reads the reply, which must be framed by
// Content-Length, returning its status and body length.
func (c *rawClient) do() (status, n int, err error) {
	if _, err = c.conn.Write(c.req); err != nil {
		return 0, 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil || len(line) < 12 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	for _, d := range line[9:12] {
		status = status*10 + int(d-'0')
	}
	n = -1
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return status, 0, err
		}
		if len(line) <= 2 {
			break
		}
		if name, v, ok := bytes.Cut(line, []byte(": ")); ok && asciiEqualFold(name, "Content-Length") {
			n = 0
			for _, d := range bytes.TrimRight(v, "\r\n") {
				n = n*10 + int(d-'0')
			}
		}
	}
	if n < 0 {
		return status, 0, io.ErrUnexpectedEOF
	}
	_, err = c.br.Discard(n)
	return status, n, err
}

const reply1K = "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 1024\r\n" +
	"X-Bench-Recv: 123456789\r\nX-Bench-Reply: 123456799\r\nDate: Mon, 01 Jan 2024 00:00:00 GMT\r\n\r\n"

func canned1K() string { return reply1K + strings.Repeat("x", 1024) }

// TestRelayDifferential holds the relay to httputil.ReverseProxy: over the
// same backend bytes a client must see the same status, end-to-end headers
// and body through either.
func TestRelayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	bigValue := strings.Repeat("v", 1000)
	var bigHead strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&bigHead, "X-Big-%02d: %s\r\n", i, bigValue)
	}
	cases := []struct {
		name, method, reply string
		closeAfter          bool
	}{
		{"content-length", "GET", "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\nX-Custom: a\r\n\r\nhello", false},
		{"chunked", "GET", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Type: text/plain\r\n\r\n" +
			"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n", false},
		{"no-length-close", "GET", "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the connection closes", true},
		{"head", "HEAD", "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\n", false},
		{"204", "GET", "HTTP/1.1 204 No Content\r\nX-Custom: a\r\n\r\n", false},
		{"304", "GET", "HTTP/1.1 304 Not Modified\r\nEtag: \"v1\"\r\n\r\n", false},
		{"interim-then-200", "GET", "HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n" +
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", false},
		{"connection-close", "GET", "HTTP/1.1 200 OK\r\nConnection: close\r\nKeep-Alive: timeout=5\r\n" +
			"Content-Length: 2\r\n\r\nok", true},
		{"connection-named", "GET", "HTTP/1.1 200 OK\r\nConnection: X-Hop\r\nX-Hop: gone\r\nX-Stays: here\r\n" +
			"Content-Length: 2\r\n\r\nok", false},
		{"duplicate-headers", "GET", "HTTP/1.1 200 OK\r\nSet-Cookie: a=1\r\nx-lower-case: kept\r\nSet-Cookie: b=2\r\n" +
			"Content-Length: 2\r\nSet-Cookie: c=3\r\n\r\nok", false},
		{"60KiB-head", "GET", "HTTP/1.1 200 OK\r\n" + bigHead.String() + "Content-Length: 2\r\n\r\nok", false},
		{"error-status", "GET", "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\noops", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backend := newCannedBackend(t, tc.reply, tc.closeAfter)
			r, owner := relayRig(t, nil, backend.url())
			front := relayFront(t, r, owner)
			bu, _ := url.Parse(backend.url())
			oracle := httptest.NewServer(httputil.NewSingleHostReverseProxy(bu))
			defer oracle.Close()

			fetch := func(base string) (int, http.Header, []byte) {
				req, _ := http.NewRequest(tc.method, base+"/page?q=1", nil)
				resp, err := http.DefaultTransport.RoundTrip(req)
				if err != nil {
					t.Fatalf("%s: %v", base, err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatalf("%s: body: %v", base, err)
				}
				resp.Header.Del("Date") // each front stamps its own
				if !strings.Contains(tc.reply, "Content-Type") {
					// net/http's server sniffs a type for an untyped body;
					// the relay forwards the backend's headers as they are.
					resp.Header.Del("Content-Type")
				}
				if !strings.Contains(tc.reply, "Content-Length") {
					// A body the backend did not frame is framed by each
					// front's server as it sees fit: chunked when flushed
					// early, by length when it fits the write buffer.
					resp.Header.Del("Content-Length")
				}
				return resp.StatusCode, resp.Header, body
			}
			// Twice, so the second exchange runs on whatever the first left pooled.
			for i := 0; i < 2; i++ {
				wantStatus, wantHeader, wantBody := fetch(oracle.URL)
				status, header, body := fetch(front.URL)
				if status != wantStatus {
					t.Fatalf("status %d, ReverseProxy gives %d", status, wantStatus)
				}
				if !reflect.DeepEqual(header, wantHeader) {
					t.Fatalf("headers differ:\nrelay        %v\nReverseProxy %v", header, wantHeader)
				}
				if !bytes.Equal(body, wantBody) {
					t.Fatalf("body %q, ReverseProxy gives %q", body, wantBody)
				}
			}
			if idle := r.relay.idleConns(); tc.closeAfter && idle != 0 {
				t.Fatalf("%d connections pooled after the backend closed them", idle)
			} else if !tc.closeAfter && idle != 1 {
				t.Fatalf("%d connections pooled, want the one that was reused", idle)
			}
		})
	}
}

// TestRelayBadBackendIs502 feeds the relay heads it must refuse: each
// becomes a 502 with none of the bad head's headers, and the connection is
// not pooled.
func TestRelayBadBackendIs502(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	for name, reply := range map[string]string{
		"oversized head":     "HTTP/1.1 200 OK\r\nX-Leak: 1\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("p", 1000)+"\r\n", 70) + "\r\n",
		"bad status line":    "HTTP/1.1 2x0 OK\r\nX-Leak: 1\r\n\r\n",
		"negative length":    "HTTP/1.1 200 OK\r\nX-Leak: 1\r\nContent-Length: -5\r\n\r\n",
		"conflicting length": "HTTP/1.1 200 OK\r\nX-Leak: 1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
		"folded header":      "HTTP/1.1 200 OK\r\nX-Leak: 1\r\n continued\r\nContent-Length: 0\r\n\r\n",
		"unexpected 101":     "HTTP/1.1 101 Switching Protocols\r\nX-Leak: 1\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			backend := newCannedBackend(t, reply, false)
			r, owner := relayRig(t, nil, backend.url())
			front := relayFront(t, r, owner)
			resp, err := http.Get(front.URL + "/x")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("status %d, want 502", resp.StatusCode)
			}
			if resp.Header.Get("X-Leak") != "" {
				t.Fatal("a header of the refused head reached the client")
			}
			if idle := r.relay.idleConns(); idle != 0 {
				t.Fatalf("%d connections pooled after a malformed head", idle)
			}
		})
	}
}

// TestRelayTruncatedBodyAborts: a backend that dies mid-body must not leave
// the client holding a short body it takes for the whole.
func TestRelayTruncatedBodyAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	for name, reply := range map[string]string{
		"content-length": "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort",
		"chunked":        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n64\r\nshort",
	} {
		t.Run(name, func(t *testing.T) {
			backend := newCannedBackend(t, reply, true)
			r, owner := relayRig(t, nil, backend.url())
			front := relayFront(t, r, owner)
			resp, err := http.Get(front.URL + "/x")
			if err == nil {
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if err == nil {
				t.Fatal("client read a truncated body without an error")
			}
		})
	}
}

// headerEcho is a backend that answers with the request head it saw.
func headerEcho(t *testing.T) (*httptest.Server, *atomic.Int64) {
	var accepted atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"header": req.Header, "uri": req.RequestURI, "host": req.Host})
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepted.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &accepted
}

// TestHopByHopHeadersStayOnTheirHop is the regression test for forwarding
// Connection and friends: a client that asks for its own connection to be
// closed must not make the relay lose its pooled backend connection, and
// per-hop request headers must not reach the backend.
func TestHopByHopHeadersStayOnTheirHop(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend, accepted := headerEcho(t)
	r, owner := relayRig(t, nil, backend.URL+"/base/")
	front := relayFront(t, r, owner)

	var seen struct {
		Header http.Header `json:"header"`
		URI    string      `json:"uri"`
		Host   string      `json:"host"`
	}
	for i := 0; i < 100; i++ {
		req, _ := http.NewRequest("GET", front.URL+"/a%20b/c?q=1&r=%2F", nil)
		req.Close = true // sends Connection: close
		req.Header.Add("Connection", "X-Per-Hop")
		req.Header.Set("X-Per-Hop", "1")
		req.Header.Set("Keep-Alive", "timeout=5")
		req.Header.Set("Proxy-Connection", "keep-alive")
		req.Header.Set("Te", "trailers")
		req.Header.Set("Upgrade", "h2c")
		req.Header.Set("x-end-to-end", "kept")
		req.Header.Set("Content-Type", "text/plain")
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&seen)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, resp.StatusCode, err)
		}
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("backend accepted %d connections for 100 sequential Connection: close requests, want 1", n)
	}
	for _, k := range []string{"Connection", "X-Per-Hop", "Keep-Alive", "Proxy-Connection", "Te", "Upgrade"} {
		if v, ok := seen.Header[k]; ok {
			t.Errorf("hop-by-hop header %s: %v reached the backend", k, v)
		}
	}
	if seen.Header.Get("X-End-To-End") != "kept" || seen.Header.Get("Content-Type") != "text/plain" {
		t.Errorf("end-to-end headers lost: %v", seen.Header)
	}
	if seen.URI != "/base/a%20b/c?q=1&r=%2F" || seen.Host != strings.TrimPrefix(backend.URL, "http://") {
		t.Errorf("backend saw %q on host %q", seen.URI, seen.Host)
	}
}

// TestStaleConnectionRedial: a backend that closes its idle connections
// costs no client-visible error, and exactly one redial per closed one.
func TestStaleConnectionRedial(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend := newCannedBackend(t, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", true)
	r, owner := relayRig(t, nil, backend.url())
	front := relayFront(t, r, owner)
	const n = 20
	for i := 0; i < n; i++ {
		resp, err := http.Get(front.URL + "/x")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok" {
			t.Fatalf("request %d: %d %q", i, resp.StatusCode, body)
		}
		// Let the backend's close land before the connection is reused.
		for deadline := time.Now().Add(time.Second); backend.open() > 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if got := r.relay.staleRetries.Load(); got != n-1 {
		t.Errorf("stale retries = %d, want %d", got, n-1)
	}
	if got := r.relay.dials.Load(); got != n {
		t.Errorf("dials = %d, want %d", got, n)
	}
}

// TestStaleConnectionRedialWithBody: the same for a small POST against a
// backend whose keep-alive idle timeout is shorter than the gap between
// requests. Nothing watches a pooled connection, so every request finds its
// connection closed; each is redialled with the buffered body, none fails,
// and the healthy backend is never reported to the checker.
func TestStaleConnectionRedialWithBody(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(w, req.Body)
	}))
	backend.Config.IdleTimeout = 10 * time.Millisecond
	backend.Start()
	defer backend.Close()
	hc := &health.Options{Interval: time.Hour, FailThreshold: 1}
	r, owner := relayRig(t, hc, backend.URL)
	front := relayFront(t, r, owner)
	const n = 10
	for i := 0; i < n; i++ {
		resp, err := http.Post(front.URL+"/x", "text/plain", strings.NewReader("hello"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "hello" {
			t.Fatalf("POST %d: %d %q", i, resp.StatusCode, body)
		}
		time.Sleep(40 * time.Millisecond)
	}
	if got := r.relay.staleRetries.Load(); got == 0 {
		t.Error("no pooled connection was found stale: the test did not exercise the redial")
	}
	if d, u, s := r.relay.dials.Load(), r.relay.reuses.Load(), r.relay.staleRetries.Load(); d+u-s != n {
		t.Errorf("dials %d + reuses %d - stale retries %d != %d exchanges", d, u, s, n)
	}
	if !r.BackendUp(backend.URL) {
		t.Error("a stale pooled connection was reported as a backend failure")
	}
}

// TestEarlyResponseToStreamedBody: a backend that answers a large upload
// without reading it (and then closes, failing the relay's body write) has
// its answer relayed; it is not turned into a 502 or held against the backend.
func TestEarlyResponseToStreamedBody(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "too large", http.StatusRequestEntityTooLarge)
	}))
	defer backend.Close()
	hc := &health.Options{Interval: time.Hour, FailThreshold: 1}
	r, owner := relayRig(t, hc, backend.URL)
	front := relayFront(t, r, owner)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(front.URL+"/upload", "application/octet-stream", bytes.NewReader(make([]byte, 8<<20)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || string(body) != "too large\n" {
			t.Fatalf("8 MiB POST %d: %d %q, want the backend's 413", i, resp.StatusCode, body)
		}
	}
	if !r.BackendUp(backend.URL) {
		t.Error("an early 413 was reported as a backend failure")
	}
	if idle := r.relay.idleConns(); idle != 0 {
		t.Errorf("%d connections pooled after a half-sent request", idle)
	}
}

// TestIdlePoolBound fills a backend's free list past maxIdlePerBackend: the
// surplus is closed, not kept, and close empties the rest.
func TestIdlePoolBound(t *testing.T) {
	u, err := parseUpstream("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	var far []net.Conn
	for i := 0; i < maxIdlePerBackend+3; i++ {
		near, other := net.Pipe()
		far = append(far, other)
		u.put(&upConn{conn: near})
	}
	if n := u.idleConns(); n != maxIdlePerBackend {
		t.Fatalf("%d connections pooled, bound is %d", n, maxIdlePerBackend)
	}
	closed := func(c net.Conn) bool {
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		_, err := c.Read(make([]byte, 1))
		return err == io.EOF
	}
	for _, c := range far[maxIdlePerBackend:] {
		if !closed(c) {
			t.Fatal("a connection put to a full pool was left open")
		}
	}
	u.close()
	if n := u.idleConns(); n != 0 || !closed(far[0]) {
		t.Fatalf("%d connections pooled after close", n)
	}
	near, other := net.Pipe()
	u.put(&upConn{conn: near})
	if u.idleConns() != 0 || !closed(other) {
		t.Fatal("a closed pool kept a connection")
	}
}

// TestRouteLeavesUncleanPathsToTheMux: /svc/ paths go straight to handle
// unless path.Clean would change them; those still get ServeMux's redirect
// to the cleaned path, as they did when the mux saw every request.
func TestRouteLeavesUncleanPathsToTheMux(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	r, _ := relayRig(t, nil, "http://127.0.0.1:1")
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	for path, want := range map[string]string{
		"/svc//acme/x":      "/svc/acme/x",
		"/svc/acme/../x":    "/svc/x",
		"/svc/acme/./x":     "/svc/acme/x",
		"/svc/acme/a//":     "/svc/acme/a/",
		"/svc/nobody/x":     "", // clean: handled directly, unknown org
		"/svc/nobody/a/b/":  "",
		"/svc/nobody/a..b/": "",
	} {
		resp, err := client.Get(r.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want == "" {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: status %d, want handle's 404", path, resp.StatusCode)
			}
		} else if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusMovedPermanently || loc != want {
			t.Errorf("%s: status %d to %q, want the mux's 301 to %q", path, resp.StatusCode, loc, want)
		}
	}
}

// bodySum is a backend that answers with the SHA-256 of the request body.
func bodySum(t *testing.T) (*httptest.Server, *atomic.Int64) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		requests.Add(1)
		h := sha256.New()
		n, _ := io.Copy(h, req.Body)
		fmt.Fprintf(w, "%d %x %v", n, h.Sum(nil), req.TransferEncoding)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

// TestRequestBodyReplayLimit: a small declared body is buffered and survives
// a failover; a large or unknown-length one streams through once with
// bounded memory and is never sent to a second backend.
//
// The dead backend accepts TCP, so the health checker's first probe of it
// succeeds and resets its failure count. That probe runs on the checker's
// goroutine as the rig starts; the test waits for it before the first
// exchange; otherwise it can land between the two failed exchanges and
// leave the backend up with one failure counted. The checker counts a probe
// only after recording its result, so once both probes are counted the dead
// backend's success is recorded, whichever backend was probed first.
func TestRequestBodyReplayLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	// The first backend reads the request head and hangs up.
	dead := newCannedBackend(t, "", true)
	good, goodRequests := bodySum(t)
	hc := &health.Options{Interval: time.Hour, FailThreshold: 2}
	r, owner := relayRig(t, hc, dead.url(), good.URL)
	front := relayFront(t, r, owner)
	for deadline := time.Now().Add(5 * time.Second); healthProbes(t, r) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the health checker never probed both backends")
		}
	}

	post := func(base string, body io.Reader) (int, string) {
		resp, err := http.Post(base+"/upload", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	sum := func(p []byte) string { return fmt.Sprintf("%d %x", len(p), sha256.Sum256(p)) }

	small := bytes.Repeat([]byte("s"), 1<<10)
	if status, got := post(front.URL, bytes.NewReader(small)); status != http.StatusOK || got != sum(small)+" []" {
		t.Fatalf("1 KiB POST after failover: %d %q", status, got)
	}
	if goodRequests.Load() != 1 {
		t.Fatalf("second backend saw %d requests, want the one failover", goodRequests.Load())
	}

	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if !r.BackendUp(dead.url()) {
		t.Fatal("one failed exchange already marked the backend down")
	}
	if status, _ := post(front.URL, bytes.NewReader(big)); status != http.StatusBadGateway {
		t.Fatalf("4 MiB POST to a dead backend: status %d, want 502", status)
	}
	if goodRequests.Load() != 1 {
		t.Fatal("a streamed body was replayed on a second backend")
	}
	if r.BackendUp(dead.url()) {
		t.Fatal("failed streamed exchange was not reported to the health checker")
	}

	// Against a live backend the same bodies arrive intact, without the
	// relay holding them in memory.
	r2, owner2 := relayRig(t, nil, good.URL)
	front2 := relayFront(t, r2, owner2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, got := post(front2.URL, bytes.NewReader(big))
	runtime.ReadMemStats(&after)
	if status != http.StatusOK || got != sum(big)+" []" {
		t.Fatalf("4 MiB POST: %d %q", status, got)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("4 MiB POST allocated %d bytes process-wide; the body is being buffered", grown)
	}
	// Unknown length: chunked in, chunked out.
	status, got = post(front2.URL, io.MultiReader(bytes.NewReader(big[:100000]), bytes.NewReader(big[100000:300000])))
	if status != http.StatusOK || got != sum(big[:300000])+" [chunked]" {
		t.Fatalf("chunked POST: %d %q", status, got)
	}
}

// healthProbes reads rsa_health_probes_total off r's metrics endpoint.
func healthProbes(t *testing.T, r *Redirector) int {
	t.Helper()
	for _, line := range strings.Split(fetchBody(t, r.URL()+"/v1/metrics"), "\n") {
		if v, ok := strings.CutPrefix(line, "rsa_health_probes_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("rsa_health_probes_total %q: %v", v, err)
			}
			return int(n)
		}
	}
	t.Fatal("no rsa_health_probes_total series")
	return 0
}

// TestRelayHTTPS: an https backend is dialled through crypto/tls on the same
// pooled connection type.
func TestRelayHTTPS(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprint(w, "secure ", req.TLS != nil)
	}))
	defer backend.Close()
	r, owner := relayRig(t, nil, backend.URL)
	pool := x509.NewCertPool()
	pool.AddCert(backend.Certificate())
	r.backends[owner][0].tls.RootCAs = pool
	front := relayFront(t, r, owner)
	for i := 0; i < 2; i++ {
		resp, err := http.Get(front.URL + "/x")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "secure true" {
			t.Fatalf("%d %q", resp.StatusCode, body)
		}
	}
	if d, u := r.relay.dials.Load(), r.relay.reuses.Load(); d != 1 || u != 1 {
		t.Fatalf("dials %d reuses %d, want 1 and 1", d, u)
	}
}

func TestParseUpstream(t *testing.T) {
	for _, bad := range []string{"127.0.0.1:80", "ftp://h/", "http://", "http://h/x?q=1", "http://h/#f", "http://h:port/"} {
		if _, err := parseUpstream(bad); err == nil {
			t.Errorf("parseUpstream(%q) accepted", bad)
		}
	}
	u, err := parseUpstream("https://example.org/api/")
	if err != nil {
		t.Fatal(err)
	}
	if u.addr != "example.org:443" || u.host != "example.org" || u.base != "/api" || u.tls == nil {
		t.Fatalf("parsed %+v", u)
	}
	if got := string(u.appendURI([]byte(u.origin), []byte("a%20b/c"), []byte("q=1"))); got != "https://example.org/api/a%20b/c?q=1" {
		t.Fatalf("location = %q", got)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestRelayConcurrentChurn drives the relay from 64 clients while its backend
// is killed and restarted, then closes everything: the idle pool stays
// within its bound throughout (TestIdlePoolBound fills it) and no descriptor
// or goroutine is left behind.
func TestRelayConcurrentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	fdsBefore, goroutinesBefore := openFDs(t), runtime.NumGoroutine()

	const clients = 64
	handler := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("b"), 2048))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	backend := &http.Server{Handler: handler}
	go func() { _ = backend.Serve(ln) }()

	r, owner := relayRig(t, nil, "http://"+addr)
	up := r.backends[owner][0]
	front := relayFront(t, r, owner)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	var ok, badGateway, aborted, overBound atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(front.URL + "/x")
				if err != nil {
					// An exchange cut off by the kill, past its response head.
					aborted.Add(1)
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK && n == 2048:
					ok.Add(1)
				case resp.StatusCode == http.StatusBadGateway:
					badGateway.Add(1)
				default:
					t.Errorf("status %d with %d bytes", resp.StatusCode, n)
				}
				if up.idleConns() > maxIdlePerBackend {
					overBound.Add(1)
				}
			}
		}()
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	await("traffic", func() bool { return ok.Load() > 200 })
	backend.Close()
	await("502s while the backend is down", func() bool { return badGateway.Load() > 20 })
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	backend = &http.Server{Handler: handler}
	go func() { _ = backend.Serve(ln) }()
	okAtRestart := ok.Load()
	await("traffic after the restart", func() bool { return ok.Load() > okAtRestart+200 })
	close(stop)
	wg.Wait()

	t.Logf("ok %d, 502 %d, aborted %d", ok.Load(), badGateway.Load(), aborted.Load())
	if overBound.Load() != 0 {
		t.Errorf("idle pool exceeded its bound of %d on %d samples", maxIdlePerBackend, overBound.Load())
	}
	if up.idleConns() == 0 {
		t.Error("nothing pooled after traffic drained")
	}
	r.Close()
	if n := up.idleConns(); n != 0 {
		t.Errorf("%d connections pooled after Close", n)
	}
	front.Close()
	backend.Close()
	client.CloseIdleConnections()
	await("descriptors and goroutines to be released", func() bool {
		return openFDs(t) <= fdsBefore && runtime.NumGoroutine() <= goroutinesBefore
	})
}

// TestProxyExchangeAllocs pins one proxied GET end to end through the real
// listener: request head parsed in place, admitted, relayed over a pooled
// backend connection, response head parsed in place and written with the
// 1 KiB body straight to the client connection. The client and the canned
// backend allocate nothing, so the count is the redirector's: zero. Through
// net/http's server and http.Client the same exchange cost about 95.
func TestProxyExchangeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend := newCannedBackend(t, canned1K(), false)
	r, _ := relayRig(t, nil, backend.url())
	c := newRawClient(t, r.URL(), "/svc/acme/bench")
	var status, n int
	var err error
	exchange := func() { status, n, err = c.do() }
	for i := 0; i < 10; i++ {
		exchange() // dial, grow the buffers
	}
	allocs := testing.AllocsPerRun(200, exchange)
	if err != nil || status != http.StatusOK || n != 1024 {
		t.Fatalf("exchange: status %d, %d bytes, %v", status, n, err)
	}
	if allocs != 0 {
		t.Fatalf("one proxied GET allocates %.1f objects, want 0", allocs)
	}
}

// TestRefuseAllocs pins the over-quota reply end to end: admission refuses,
// and the preformatted 503 goes out with no allocation.
func TestRefuseAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	r, _ := relayRig(t, nil, "http://127.0.0.1:1")
	c := newRawClient(t, r.URL(), "/svc/zero/bench")
	var status, n int
	var err error
	refuse := func() { status, n, err = c.do() }
	refuse()
	allocs := testing.AllocsPerRun(200, refuse)
	if err != nil || status != http.StatusServiceUnavailable || n != len(refusalBody) {
		t.Fatalf("refusal: status %d, %d bytes, %v", status, n, err)
	}
	if allocs != 0 {
		t.Fatalf("one refusal allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkProxyExchange is one proxied GET end to end: a keep-alive client
// through the redirector's listener to a loopback backend over a pooled
// connection, 1 KiB reply relayed.
func BenchmarkProxyExchange(b *testing.B) {
	backend := newCannedBackend(b, canned1K(), false)
	r, _ := relayRig(b, nil, backend.url())
	c := newRawClient(b, r.URL(), "/svc/acme/bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, n, err := c.do(); err != nil || status != http.StatusOK || n != 1024 {
			b.Fatalf("status %d, %d bytes, %v", status, n, err)
		}
	}
}

// BenchmarkRefuse is the proxy-mode over-quota reply, end to end.
func BenchmarkRefuse(b *testing.B) {
	r, _ := relayRig(b, nil, "http://127.0.0.1:1")
	c := newRawClient(b, r.URL(), "/svc/zero/bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _, err := c.do(); err != nil || status != http.StatusServiceUnavailable {
			b.Fatalf("status %d, %v", status, err)
		}
	}
}

// FuzzReadResponseHead: whatever a backend sends, the head parser returns a
// head or an error — no panic, nothing larger than the input allowed, and
// what it accepts is internally consistent.
func FuzzReadResponseHead(f *testing.F) {
	for _, seed := range []string{
		reply1K,
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 9\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\nlower: case\nX-A:  padded \t\n\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
		"HTTP/1.1 200\r\n\r\n",
		"HTTP/1.1 99 Low\r\n\r\n",
		"HTTP/2.0 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\n: empty name\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBad Name: x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: 1\r\n folded\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close, X-A\r\nX-A: 1\r\n\r\n",
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n\r\n",
		"\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 64) // short buffer: long lines arrive in fragments
		head, scratch, err := readResponseHead(br, nil, nil)
		if len(scratch) > len(data) || len(scratch) > maxResponseHead+64 {
			t.Fatalf("scratch holds %d bytes of a %d-byte input", len(scratch), len(data))
		}
		if err != nil {
			if !errors.Is(err, errMalformedHead) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			return
		}
		if head.status < 200 || head.status > 999 {
			t.Fatalf("accepted status %d", head.status)
		}
		if head.chunked && head.length != -1 {
			t.Fatal("chunked head kept a content length")
		}
		if head.length < -1 {
			t.Fatalf("accepted length %d", head.length)
		}
		total, lengths := 0, 0
		for _, f := range head.fields {
			if !isTokenBytes(f.name) || !validFieldValue(f.value) {
				t.Fatalf("header line %q: %q accepted", f.name, f.value)
			}
			total += len(f.name) + len(f.value)
			if asciiEqualFold(f.name, "Content-Length") {
				lengths++
				if n, err := parseLength(f.value); err != nil || (!head.chunked && n != head.length) {
					t.Fatalf("Content-Length %q with parsed length %d", f.value, head.length)
				}
			}
		}
		if total > len(data) {
			t.Fatalf("%d header bytes out of %d input bytes", total, len(data))
		}
		if (lengths > 0) != (head.length >= 0 || head.chunked) && !head.chunked {
			t.Fatalf("%d Content-Length lines with parsed length %d", lengths, head.length)
		}
		// The head the relay writes on is a well-formed response without the
		// hop-by-hop headers.
		var out bytes.Buffer
		c := &inConn{req: inRequest{minor: 1, method: []byte("GET")}, bw: bufio.NewWriter(&out)}
		c.relayHead(&head, false)
		c.bw.Flush()
		resp, err := http.ReadResponse(bufio.NewReader(&out), nil)
		if err != nil || resp.StatusCode != head.status {
			t.Fatalf("relayed head %q: %v", out.Bytes(), err)
		}
		for _, k := range hopByHopNames {
			if _, ok := resp.Header[k]; ok && k != "Connection" {
				t.Fatalf("relayed head %q carries %s", out.Bytes(), k)
			}
		}
	})
}
