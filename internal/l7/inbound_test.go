package l7

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzReadRequestHead: whatever a client sends, the head reader and parser
// return a verdict without panicking; what they accept is no larger than
// the input and internally consistent, and a head they serve on the service
// path is one net/http reads the same way.
func FuzzReadRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /svc/acme/bench HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /svc/acme/a/b?q=1&r=2 HTTP/1.1\r\nHost: a\r\nUser-Agent: x\r\n\r\n",
		"POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello",
		"POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
		"POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n",
		"GET /svc/acme/x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"GET /svc/acme/x HTTP/1.1\nHost: a\n\n",
		"GET /svc/acme/x HTTP/1.1\r\nHost: a\r\nX-A: 1\r\n folded\r\n\r\n",
		"GET /svc//acme/../x HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /svc/acme/a%20b HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET http://a/svc/acme/x HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /v1/metrics HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /svc/acme/x HTTP/2.0\r\nHost: a\r\n\r\n",
		"GET /svc/acme/x HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
		"GET /svc/acme/x HTTP/1.1\r\nBad Name: x\r\n\r\n",
		"GET  HTTP/1.1\r\n\r\n",
		"\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &inConn{br: bufio.NewReaderSize(bytes.NewReader(data), 64)} // short buffer: long lines arrive in fragments
		status, ok := c.readHead()
		if len(c.head) > len(data) || len(c.head) > maxRequestHead {
			t.Fatalf("head holds %d bytes of a %d-byte input", len(c.head), len(data))
		}
		if !ok || status != 0 {
			return
		}
		verdict := c.parse()
		if verdict != 0 && verdict != statusFallback {
			if verdict < 400 || verdict > 599 {
				t.Fatalf("refused with status %d", verdict)
			}
			return
		}
		q := &c.req
		if !isTokenBytes(q.method) || len(q.target) == 0 || q.length < -1 || (q.chunked && q.length >= 0) {
			t.Fatalf("accepted method %q target %q length %d chunked %v", q.method, q.target, q.length, q.chunked)
		}
		total := 0
		for _, fl := range q.fields {
			if !isTokenBytes(fl.name) || !validFieldValue(fl.value) {
				t.Fatalf("header line %q: %q accepted", fl.name, fl.value)
			}
			total += len(fl.name) + len(fl.value)
		}
		if total > len(c.head) {
			t.Fatalf("%d header bytes out of a %d-byte head", total, len(c.head))
		}
		if verdict == statusFallback {
			return
		}
		// Served on the service path: a clean /svc/ path that net/http reads
		// to the same method, target, version and body framing.
		p := string(q.path)
		if !strings.HasPrefix(p, "/svc/") || path.Clean(p) != strings.TrimSuffix(p, "/") {
			t.Fatalf("path %q served on the service path", p)
		}
		hreq, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(c.head)))
		if err != nil {
			t.Fatalf("service head %q: net/http refuses it: %v", c.head, err)
		}
		if hreq.Method != string(q.method) || hreq.RequestURI != string(q.target) || hreq.ProtoMinor != q.minor ||
			hreq.URL.Path != p || hreq.URL.RawQuery != string(q.query) {
			t.Fatalf("head %q: net/http reads %s %s (path %q) HTTP/1.%d", c.head, hreq.Method, hreq.RequestURI, hreq.URL.Path, hreq.ProtoMinor)
		}
		if want := q.bodyLength(); hreq.ContentLength != want && !(want == 0 && hreq.ContentLength == -1 && q.minor == 0) {
			t.Fatalf("head %q: body length %d, net/http %d", c.head, want, hreq.ContentLength)
		}
	})
}

// echoBackend answers every request with what it saw: method, target, body
// digest and a few headers.
func echoBackend(t *testing.T) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Echo", "1")
		fmt.Fprintf(w, "%s %s len=%d sum=%x te=%v x-test=%q type=%q\n", req.Method, req.RequestURI, len(body),
			sha256.Sum256(body), req.TransferEncoding, req.Header.Values("X-Test"), req.Header.Get("Content-Type"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// netHTTPFront is the service path as net/http serves it, the wire before
// this package had its own: a ServeMux route to a handler that sends
// /svc/acme/<tail> through a reverse proxy to backend and answers 404 for
// any other org. (TestRelayDifferential holds the relay to
// httputil.ReverseProxy.)
func netHTTPFront(t *testing.T, backend string) string {
	bu, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/svc/", func(w http.ResponseWriter, req *http.Request) {
		org, tail, _ := strings.Cut(strings.TrimPrefix(req.URL.Path, "/svc/"), "/")
		if org != "acme" {
			http.NotFound(w, req)
			return
		}
		(&httputil.ReverseProxy{Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(bu)
			pr.Out.URL.Path, pr.Out.URL.RawPath = "/"+tail, ""
			// The relay drops Expect, as the body is on hand; forwarded,
			// the backend's own 100 Continue would reach the client too.
			pr.Out.Header.Del("Expect")
		}}).ServeHTTP(w, req)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// wireStep is one move of a raw client: write bytes, pause, or read one
// response to a request of the given method.
type wireStep struct {
	write string
	pause time.Duration
	read  string
}

// wireReply is what a client sees of one response.
type wireReply struct {
	status int
	header http.Header
	body   string
}

// playWire runs steps on a fresh connection to base and returns the replies
// read and whether the server closed the connection after them.
func playWire(t *testing.T, base string, steps []wireStep) (replies []wireReply, closed bool) {
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for _, s := range steps {
		switch {
		case s.write != "":
			if _, err := io.WriteString(conn, s.write); err != nil {
				t.Fatalf("%s: write: %v", base, err)
			}
		case s.pause > 0:
			time.Sleep(s.pause)
		default:
			resp, err := http.ReadResponse(br, &http.Request{Method: s.read})
			if err != nil {
				t.Fatalf("%s: reply %d: %v", base, len(replies), err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("%s: reply %d body: %v", base, len(replies), err)
			}
			resp.Header.Del("Date")
			replies = append(replies, wireReply{resp.StatusCode, resp.Header, string(body)})
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	_, err = br.ReadByte()
	return replies, err == io.EOF
}

// TestInboundDifferential sends the same raw bytes to a net/http front and
// to the redirector's own wire, both proxying to one echo backend, and
// compares what a client reads: status, end-to-end headers, body, and
// whether the connection stays open. Error replies the fronts make
// themselves are compared by status only (net/http words its bodies its own
// way). The deliberate differences are pinned as such.
func TestInboundDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend := echoBackend(t)
	oracle := netHTTPFront(t, backend.URL)
	r, _ := relayRig(t, nil, backend.URL)
	get := func(target string) string { return "GET " + target + " HTTP/1.1\r\nHost: a\r\n\r\n" }
	w := func(s string) wireStep { return wireStep{write: s} }
	read := func(method string) wireStep { return wireStep{read: method} }
	bigHead := "GET /svc/acme/x HTTP/1.1\r\nHost: a\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("p", 1000)+"\r\n", 70) + "\r\n"
	cases := []struct {
		name  string
		steps []wireStep
		// want, when set, is the status the redirector answers where it
		// deliberately differs from net/http.
		want []int
	}{
		{"get", []wireStep{w(get("/svc/acme/a/b?q=1&r=%2F")), read("GET")}, nil},
		{"get-escaped", []wireStep{w(get("/svc/acme/a%20b/c")), read("GET")}, nil},
		{"head", []wireStep{w("HEAD /svc/acme/x HTTP/1.1\r\nHost: a\r\n\r\n"), read("HEAD"), w(get("/svc/acme/y")), read("GET")}, nil},
		{"post", []wireStep{w("POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Type: text/plain\r\nX-Test: 1\r\nContent-Length: 5\r\n\r\nhello"), read("POST"), w(get("/svc/acme/y")), read("GET")}, nil},
		{"post-empty", []wireStep{w("POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n"), read("POST")}, nil},
		{"post-chunked", []wireStep{w("POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"), read("POST"), w(get("/svc/acme/y")), read("GET")}, nil},
		{"pipelined", []wireStep{w(get("/svc/acme/a") + "POST /svc/acme/b HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nhi" + get("/svc/acme/c")), read("GET"), read("POST"), read("GET")}, nil},
		{"http10", []wireStep{w("GET /svc/acme/x HTTP/1.0\r\n\r\n"), read("GET")}, nil},
		{"http10-keep-alive", []wireStep{w("GET /svc/acme/x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"), read("GET"), w("GET /svc/acme/y HTTP/1.0\r\n\r\n"), read("GET")}, nil},
		{"connection-close", []wireStep{w("GET /svc/acme/x HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n"), read("GET")}, nil},
		{"expect-continue", []wireStep{w("POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n"), read("POST"), w("hello"), read("POST")}, nil},
		{"expect-unknown", []wireStep{w("GET /svc/acme/x HTTP/1.1\r\nHost: a\r\nExpect: teapot\r\n\r\n"), read("GET")}, nil},
		{"length-and-chunked", []wireStep{w("POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"), read("POST")}, []int{http.StatusBadRequest}},
		{"two-lengths", []wireStep{w("POST /svc/acme/p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!"), read("POST")}, nil},
		{"no-host", []wireStep{w("GET /svc/acme/x HTTP/1.1\r\n\r\n"), read("GET")}, nil},
		{"bare-lf", []wireStep{w("GET /svc/acme/x HTTP/1.1\nHost: a\nX-Test: lf\n\n"), read("GET")}, nil},
		{"obs-fold", []wireStep{w("GET /svc/acme/x HTTP/1.1\r\nHost: a\r\nX-Test: a\r\n b\r\n\r\n"), read("GET")}, nil},
		{"oversized-head", []wireStep{w(bigHead), read("GET")}, []int{http.StatusRequestHeaderFieldsTooLarge}},
		{"slow-head", []wireStep{w("GET /svc/acme/x HTTP/1.1\r\nHo"), {pause: 30 * time.Millisecond}, w("st: a\r\n"), {pause: 30 * time.Millisecond}, w("\r\n"), read("GET")}, nil},
		{"unknown-org", []wireStep{w(get("/svc/nobody/x")), read("GET")}, nil},
		{"unclean-path", []wireStep{w(get("/svc//acme/../acme/x?q=1")), read("GET")}, nil},
		{"bad-version", []wireStep{w("GET /svc/acme/x HTTP/2.0\r\nHost: a\r\n\r\n"), read("GET")}, nil},
		{"bad-header-name", []wireStep{w("GET /svc/acme/x HTTP/1.1\r\nHost: a\r\nBad Name: x\r\n\r\n"), read("GET")}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantClosed := playWire(t, oracle, tc.steps)
			got, closed := playWire(t, r.URL(), tc.steps)
			if len(got) != len(want) {
				t.Fatalf("%d replies, net/http gives %d", len(got), len(want))
			}
			for i := range got {
				if tc.want != nil {
					if got[i].status != tc.want[i] {
						t.Fatalf("reply %d: status %d, want %d (net/http: %d)", i, got[i].status, tc.want[i], want[i].status)
					}
					continue
				}
				if got[i].status != want[i].status {
					t.Fatalf("reply %d: status %d, net/http gives %d (%q)", i, got[i].status, want[i].status, want[i].body)
				}
				if want[i].status >= 400 && want[i].header.Get("X-Echo") == "" && want[i].status != http.StatusNotFound {
					continue // the front's own error reply
				}
				if !reflect.DeepEqual(got[i].header, want[i].header) {
					t.Fatalf("reply %d: headers differ:\nwire     %v\nnet/http %v", i, got[i].header, want[i].header)
				}
				if got[i].body != want[i].body {
					t.Fatalf("reply %d: body %q, net/http gives %q", i, got[i].body, want[i].body)
				}
			}
			if tc.want == nil && closed != wantClosed {
				t.Fatalf("connection closed %v, net/http %v", closed, wantClosed)
			}
		})
	}
}
