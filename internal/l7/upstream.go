package l7

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The proxy path's backend side: a raw HTTP/1.1 relay over pooled keep-alive
// connections. The inbound side is net/http's server; everything between
// w.Header() and the backend socket is here, so one proxied request costs a
// head write, a head parse and a body copy — no client request object, no
// header clone, no per-connection goroutines.

const (
	dialTimeout           = 2 * time.Second
	responseHeaderTimeout = 10 * time.Second
	// writeTimeout bounds each write to a backend: one that stops reading
	// fails the exchange instead of parking it on a full socket buffer.
	writeTimeout = 10 * time.Second
	// earlyResponseWait is how long a backend that stopped reading the
	// request is given to have answered it anyway (a 413 to a large upload).
	earlyResponseWait = time.Second
	// idleConnTimeout bounds how long a pooled connection may sit unused
	// before it is closed instead of reused (checked lazily, on the next get).
	idleConnTimeout = 30 * time.Second
	// maxIdlePerBackend bounds each backend's free list; a connection
	// returned to a full list is closed.
	maxIdlePerBackend = 128
	// maxResponseHead caps one response head (status line + headers); a
	// longer one is a backend failure (502).
	maxResponseHead = 64 << 10
	// maxReplayBody is the largest declared request body buffered so that a
	// failover can replay it; larger or unknown-length bodies stream through
	// once and are not failover-eligible.
	maxReplayBody = 64 << 10
	// maxInterim bounds the 1xx responses skipped before a final one.
	maxInterim         = 5
	upstreamReaderSize = 4 << 10
	// maxKeptScratch is the largest per-connection head buffer kept across
	// exchanges; one grown past it by a huge head is dropped with the put.
	maxKeptScratch = 8 << 10
)

// relayBufs holds maxReplayBody-sized buffers: the replay copy of a small
// request body, and the copy buffer of a body too large for the reader.
var relayBufs = sync.Pool{New: func() any { b := make([]byte, maxReplayBody); return &b }}

// upstream is one backend: its base URL parsed once, and a bounded LIFO free
// list of keep-alive connections. A connection is owned by exactly one
// exchange from get to put (or close); the list owns it in between.
type upstream struct {
	target string      // base URL as configured: the health checker's key
	origin string      // scheme://host, for redirect-mode Location values
	addr   string      // host:port to dial
	host   string      // Host header value
	base   string      // base path, no trailing slash
	tls    *tls.Config // nil for plain http

	mu     sync.Mutex
	idle   []*upConn // newest last
	closed bool
}

// upConn is one backend connection with the buffers it reuses: the response
// reader and a scratch buffer that holds the request head while it is
// written and the response head while it is parsed.
type upConn struct {
	conn      net.Conn
	br        *bufio.Reader
	scratch   []byte
	idleSince time.Time
}

func parseUpstream(target string) (*upstream, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("l7: backend %q: %w", target, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Hostname() == "" || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("l7: backend %q: want http(s)://host[:port][/base]", target)
	}
	up := &upstream{
		target: target,
		origin: u.Scheme + "://" + u.Host,
		host:   u.Host,
		base:   strings.TrimSuffix(u.EscapedPath(), "/"),
	}
	port := u.Port()
	if u.Scheme == "https" {
		up.tls = &tls.Config{ServerName: u.Hostname()}
		if port == "" {
			port = "443"
		}
	} else if port == "" {
		port = "80"
	}
	up.addr = net.JoinHostPort(u.Hostname(), port)
	return up, nil
}

// appendURI appends the backend request target for tail (the decoded path
// under /svc/<org>/) and the raw query.
func (u *upstream) appendURI(dst []byte, tail, query string) []byte {
	dst = append(dst, u.base...)
	dst = append(dst, '/')
	dst = append(dst, (&url.URL{Path: tail}).EscapedPath()...)
	if query != "" {
		dst = append(dst, '?')
		dst = append(dst, query...)
	}
	return dst
}

// location is the absolute URL a redirect-mode 302 points at.
func (u *upstream) location(tail, query string) string {
	return string(u.appendURI([]byte(u.origin), tail, query))
}

// get pops the most recently used idle connection, or nil. An expired top
// means everything under it (older still) is expired too.
func (u *upstream) get(now time.Time) *upConn {
	var c *upConn
	var expired []*upConn
	u.mu.Lock()
	if n := len(u.idle); n > 0 {
		if top := u.idle[n-1]; now.Sub(top.idleSince) < idleConnTimeout {
			c, u.idle[n-1], u.idle = top, nil, u.idle[:n-1]
		} else {
			expired, u.idle = u.idle, nil
		}
	}
	u.mu.Unlock()
	for _, e := range expired {
		e.conn.Close()
	}
	return c
}

// put returns a connection whose exchange completed cleanly to the free
// list, or closes it when the list is full or the relay is closed.
func (u *upstream) put(c *upConn) {
	c.idleSince = time.Now()
	if cap(c.scratch) > maxKeptScratch {
		c.scratch = nil
	}
	u.mu.Lock()
	if u.closed || len(u.idle) >= maxIdlePerBackend {
		u.mu.Unlock()
		c.conn.Close()
		return
	}
	u.idle = append(u.idle, c)
	u.mu.Unlock()
}

func (u *upstream) idleConns() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.idle)
}

// close empties the free list and makes every later put close its connection.
func (u *upstream) close() {
	u.mu.Lock()
	idle := u.idle
	u.idle, u.closed = nil, true
	u.mu.Unlock()
	for _, c := range idle {
		c.conn.Close()
	}
}

// relay is a redirector's set of backend pools and their counters.
type relay struct {
	ups    []*upstream
	tracer *obs.Tracer // dial-phase histogram (nil-safe)

	dials, reuses, staleRetries atomic.Uint64
}

// pool returns the upstream for a configured backend base URL, parsing it on
// first sight: one pool per backend however many owners list it.
func (rl *relay) pool(target string) (*upstream, error) {
	for _, u := range rl.ups {
		if u.target == target {
			return u, nil
		}
	}
	u, err := parseUpstream(target)
	if err != nil {
		return nil, err
	}
	rl.ups = append(rl.ups, u)
	return u, nil
}

func (rl *relay) idleConns() (n int) {
	for _, u := range rl.ups {
		n += u.idleConns()
	}
	return n
}

func (rl *relay) close() {
	for _, u := range rl.ups {
		u.close()
	}
}

func (rl *relay) dial(u *upstream) (*upConn, error) {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", u.addr, dialTimeout)
	if err == nil && u.tls != nil {
		tc := tls.Client(conn, u.tls)
		_ = conn.SetDeadline(time.Now().Add(dialTimeout))
		if err = tc.Handshake(); err != nil {
			conn.Close()
		} else {
			_ = conn.SetDeadline(time.Time{})
			conn = tc
		}
	}
	rl.tracer.ObserveDial(time.Since(start))
	if err != nil {
		return nil, err
	}
	rl.dials.Add(1)
	return &upConn{conn: conn, br: bufio.NewReaderSize(conn, upstreamReaderSize)}, nil
}

// reqBody is a request body as the relay forwards it: absent, buffered (and
// so replayable on another backend), or streamed through once.
type reqBody struct {
	buf    []byte    // buffered body, a prefix of *pooled
	pooled *[]byte   // relayBufs buffer to release
	stream io.Reader // non-nil: forwarded once as it arrives
	length int64     // declared length of stream, -1 when unknown
}

// takeBody buffers a body whose declared length is at most maxReplayBody and
// leaves anything else to be streamed. A read error is the client's.
func takeBody(req *http.Request) (reqBody, error) {
	n := req.ContentLength
	switch {
	case n == 0 || req.Body == nil || req.Body == http.NoBody:
		return reqBody{}, nil
	case n > 0 && n <= maxReplayBody:
		bp := relayBufs.Get().(*[]byte)
		b := reqBody{buf: (*bp)[:n], pooled: bp}
		if _, err := io.ReadFull(req.Body, b.buf); err != nil {
			b.release()
			return reqBody{}, err
		}
		return b, nil
	default:
		return reqBody{stream: req.Body, length: n}, nil
	}
}

func (b *reqBody) release() {
	if b.pooled != nil {
		relayBufs.Put(b.pooled)
		b.pooled, b.buf = nil, nil
	}
}

// replayable reports whether a second backend can be sent the same request.
func (b *reqBody) replayable() bool { return b.stream == nil }

// clientError marks a failed exchange as the client's doing (its body could
// not be read): no backend is blamed and nothing is retried.
type clientError struct{ error }

// exchange relays req to u and the response to w. committed reports that the
// response head has been handed to w, after which no other reply can be
// sent. A reused connection that fails before one response byte arrived was
// closed by the backend while idle (nothing watches a pooled connection for
// that): it is replaced by a fresh dial once, transparently, for every
// request that can be sent again — no body, or a buffered one, which a
// failover would replay anyway. Such a failure says nothing about the
// backend's health and is not returned. A streamed body cannot be sent
// twice, so it is not risked on a pooled connection.
func (rl *relay) exchange(u *upstream, w http.ResponseWriter, req *http.Request, tail string, body *reqBody, sp *obs.Span) (committed bool, err error) {
	var c *upConn
	if body.replayable() {
		c = u.get(time.Now())
	}
	for {
		reused := c != nil
		if reused {
			rl.reuses.Add(1)
		} else if c, err = rl.dial(u); err != nil {
			return false, err
		}
		var stale bool
		committed, stale, err = roundTrip(c, u, w, req, tail, body, sp)
		if !stale || !reused {
			return committed, err
		}
		rl.staleRetries.Add(1)
		c = nil
	}
}

// roundTrip performs one exchange on c and then pools or closes it. stale
// reports a failure before any response byte was read.
func roundTrip(c *upConn, u *upstream, w http.ResponseWriter, req *http.Request, tail string, body *reqBody, sp *obs.Span) (committed, stale bool, err error) {
	reusable := false
	defer func() {
		if reusable {
			u.put(c)
		} else {
			c.conn.Close()
		}
	}()

	_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	c.scratch = appendRequestHead(c.scratch[:0], u, req, tail, body)
	_, werr := c.conn.Write(c.scratch)
	if werr == nil {
		werr = writeBody(c.conn, body)
	}
	wait := responseHeaderTimeout
	if werr != nil {
		if _, client := werr.(clientError); client {
			return false, false, werr
		}
		// The backend stopped reading. It may have answered without taking
		// the whole request (a 413 or 401 to a large upload): that answer is
		// relayed; only when none is there is the write error the outcome.
		// The connection is spent either way.
		wait = earlyResponseWait
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(wait))
	if _, err = c.br.Peek(1); err != nil {
		if werr != nil {
			return false, true, werr
		}
		// Silence until the deadline is a slow backend, not a stale connection.
		var ne net.Error
		return false, !(errors.As(err, &ne) && ne.Timeout()), err
	}
	h := w.Header()
	var head respHead
	if head, c.scratch, err = readResponseHead(c.br, c.scratch[:0], h); err != nil {
		clear(h)
		return false, false, err
	}
	sp.StampFirstByte()
	w.WriteHeader(head.status)

	var complete bool
	if complete, err = relayBody(w, c, req.Method, head); err != nil {
		return true, false, err
	}
	reusable = werr == nil && complete && !head.close && c.br.Buffered() == 0
	return true, false, nil
}

// hopByHop reports whether a header (canonical form) is meaningful for one
// connection only and must not cross the relay (RFC 9110 §7.6.1). Expect is
// dropped with them: by the time the head is written the body is on hand.
func hopByHop(key string) bool {
	switch key {
	case "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade", "Expect":
		return true
	}
	return false
}

// connectionNames reports whether key is listed in a Connection header.
func connectionNames(connection []string, key string) bool {
	for _, v := range connection {
		if listed(v, key) {
			return true
		}
	}
	return false
}

// listed reports whether a comma-separated header value holds token.
func listed(list, token string) bool {
	for list != "" {
		var item string
		item, list, _ = strings.Cut(list, ",")
		if strings.EqualFold(textproto.TrimString(item), token) {
			return true
		}
	}
	return false
}

// appendRequestHead writes the request line and the end-to-end headers
// straight from req.Header, with the relay's own Host and body framing. The
// inbound server has already validated every name and value.
func appendRequestHead(dst []byte, u *upstream, req *http.Request, tail string, body *reqBody) []byte {
	dst = append(dst, req.Method...)
	dst = append(dst, ' ')
	dst = u.appendURI(dst, tail, req.URL.RawQuery)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, u.host...)
	dst = append(dst, "\r\n"...)
	connection := req.Header["Connection"]
	for k, vs := range req.Header {
		if hopByHop(k) || k == "Content-Length" || (connection != nil && connectionNames(connection, k)) {
			continue
		}
		for _, v := range vs {
			dst = append(dst, k...)
			dst = append(dst, ": "...)
			dst = append(dst, v...)
			dst = append(dst, "\r\n"...)
		}
	}
	switch {
	case body.stream != nil && body.length < 0:
		dst = append(dst, "Transfer-Encoding: chunked\r\n"...)
	case body.stream != nil:
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, body.length, 10)
		dst = append(dst, "\r\n"...)
	case len(body.buf) > 0 || req.Method == "POST" || req.Method == "PUT" || req.Method == "PATCH":
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body.buf)), 10)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// writeBody sends the request body after the head: the buffered copy in one
// write, a stream through a pooled buffer (chunk-framed when its length was
// not declared), each write under its own deadline.
func writeBody(conn net.Conn, body *reqBody) error {
	if body.stream == nil {
		if len(body.buf) == 0 {
			return nil
		}
		_, err := conn.Write(body.buf)
		return err
	}
	bp := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(bp)
	// Room for the chunk-size line ahead of the data and CRLF after it, so a
	// chunk goes out in one write.
	const lead, trail = 10, 2
	buf := *bp
	var sent int64
	var hex [8]byte
	for {
		n, rerr := body.stream.Read(buf[lead : len(buf)-trail])
		if n > 0 {
			out := buf[lead : lead+n]
			if body.length < 0 {
				size := strconv.AppendInt(hex[:0], int64(n), 16)
				start := lead - len(size) - 2
				copy(buf[start:], size)
				buf[lead-2], buf[lead-1] = '\r', '\n'
				buf[lead+n], buf[lead+n+1] = '\r', '\n'
				out = buf[start : lead+n+trail]
			}
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := conn.Write(out); err != nil {
				return err
			}
			sent += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return clientError{fmt.Errorf("read request body: %w", rerr)}
		}
	}
	if body.length < 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := io.WriteString(conn, "0\r\n\r\n")
		return err
	}
	if sent != body.length {
		return clientError{fmt.Errorf("request body: %d bytes of declared %d", sent, body.length)}
	}
	return nil
}

// respHead is what the relay needs from a response head beyond the headers.
type respHead struct {
	status  int
	length  int64 // declared Content-Length, -1 when absent
	chunked bool
	close   bool // the connection must not be reused
}

var errMalformedHead = errors.New("malformed response head")

// readResponseHead reads response heads from br until a final (non-1xx) one
// and parses it into h: end-to-end headers under their canonical names,
// every name and value a substring of one string copy of the head, the
// value slices carved from one backing array. Hop-by-hop headers are
// consumed, not copied. Nothing is sized by a number the backend sent.
// scratch is the read buffer, returned (possibly grown) for reuse.
func readResponseHead(br *bufio.Reader, scratch []byte, h http.Header) (respHead, []byte, error) {
	for interim := 0; ; interim++ {
		var lines int
		var err error
		if scratch, lines, err = readHeadBlock(br, scratch[:0]); err != nil {
			return respHead{}, scratch, err
		}
		head, err := parseHead(string(scratch), lines, h)
		if err != nil {
			return respHead{}, scratch, err
		}
		if head.status >= 200 {
			return head, scratch, nil
		}
		// Upgrade is never forwarded, so a 101 answers nothing we sent.
		if interim == maxInterim || head.status == http.StatusSwitchingProtocols {
			return respHead{}, scratch, fmt.Errorf("%w: unexpected %d response", errMalformedHead, head.status)
		}
		clear(h)
	}
}

// readHeadBlock appends one head (through its blank line) to dst and counts
// its lines. Lines longer than the reader's buffer arrive in fragments.
func readHeadBlock(br *bufio.Reader, dst []byte) ([]byte, int, error) {
	lines := 0
	for lineStart := 0; ; {
		frag, err := br.ReadSlice('\n')
		dst = append(dst, frag...)
		if len(dst) > maxResponseHead {
			return dst, 0, fmt.Errorf("%w: longer than %d bytes", errMalformedHead, maxResponseHead)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst, 0, err
		}
		if line := dst[lineStart:]; len(line) == 1 || (len(line) == 2 && line[0] == '\r') {
			return dst, lines, nil
		}
		lines++
		lineStart = len(dst)
	}
}

// parseHead parses one head block (lines counted by readHeadBlock) into h.
func parseHead(block string, lines int, h http.Header) (respHead, error) {
	head := respHead{length: -1}
	line, rest := cutLine(block)
	// "HTTP/1.x SSS[ reason]"
	if len(line) < 12 || line[:7] != "HTTP/1." || line[7] < '0' || line[7] > '9' || line[8] != ' ' ||
		(len(line) > 12 && line[12] != ' ') {
		return head, fmt.Errorf("%w: status line %.64q", errMalformedHead, line)
	}
	for i := 9; i < 12; i++ {
		if line[i] < '0' || line[i] > '9' {
			return head, fmt.Errorf("%w: status line %.64q", errMalformedHead, line)
		}
		head.status = head.status*10 + int(line[i]-'0')
	}
	if head.status < 100 {
		return head, fmt.Errorf("%w: status %d", errMalformedHead, head.status)
	}
	keepAlive := false
	var connection []string // Connection header values, to drop what they name
	vals := make([]string, 0, lines-1)
	for rest != "" {
		line, rest = cutLine(rest)
		if line == "" {
			break
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return head, fmt.Errorf("%w: header line %.64q", errMalformedHead, line)
		}
		key, v := canonicalKey(line[:colon]), textproto.TrimString(line[colon+1:])
		switch key {
		case "Connection":
			connection = append(connection, v)
			keepAlive = keepAlive || listed(v, "keep-alive")
			head.close = head.close || listed(v, "close")
			continue
		case "Transfer-Encoding":
			if !strings.EqualFold(v, "chunked") || head.chunked {
				return head, fmt.Errorf("%w: transfer encoding %.64q", errMalformedHead, v)
			}
			head.chunked = true
			continue
		case "Content-Length":
			n, err := parseLength(v)
			if err != nil || (head.length >= 0 && n != head.length) {
				return head, fmt.Errorf("%w: content length %.64q", errMalformedHead, v)
			}
			if head.length >= 0 {
				continue // repeated with the same value: one copy goes on
			}
			head.length = n
		default:
			if hopByHop(key) {
				continue
			}
		}
		vals = append(vals, v)
		if prev := h[key]; prev != nil {
			h[key] = append(prev, v)
		} else {
			h[key] = vals[len(vals)-1 : len(vals) : len(vals)]
		}
	}
	if connection != nil {
		for k := range h {
			if connectionNames(connection, k) {
				delete(h, k)
			}
		}
	}
	if head.chunked {
		// Transfer-Encoding overrides a Content-Length sent beside it.
		delete(h, "Content-Length")
		head.length = -1
	}
	if strings.HasPrefix(block, "HTTP/1.0") && !keepAlive {
		head.close = true
	}
	return head, nil
}

// cutLine splits s after its first line, dropping the line's CRLF or LF.
func cutLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// isToken reports whether s is a non-empty RFC 9110 token (a header name).
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') || c == '-' {
			continue
		}
		if !strings.ContainsRune("!#$%&'*+.^_`|~", rune(c)) {
			return false
		}
	}
	return s != ""
}

// canonicalKey is textproto.CanonicalMIMEHeaderKey without the copy when
// the name already is canonical, which backends' names nearly always are.
func canonicalKey(s string) string {
	upper := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (upper && 'a' <= c && c <= 'z') || (!upper && 'A' <= c && c <= 'Z') {
			return textproto.CanonicalMIMEHeaderKey(s)
		}
		upper = c == '-'
	}
	return s
}

// parseLength parses a Content-Length value: decimal digits only.
func parseLength(s string) (int64, error) {
	if s == "" || len(s) > 18 {
		return 0, errMalformedHead
	}
	var n int64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errMalformedHead
		}
		n = n*10 + int64(s[i]-'0')
	}
	return n, nil
}

// relayBody copies the response body to w by the head's framing and reports
// whether the backend's side of the exchange ended where the connection can
// carry another. A backend failure is returned; a client that stopped
// reading is not one (the exchange just ends, incomplete).
func relayBody(w io.Writer, c *upConn, method string, head respHead) (complete bool, err error) {
	if method == "HEAD" || head.status == http.StatusNoContent || head.status == http.StatusNotModified {
		return true, nil
	}
	// The response-header deadline has done its job; a body that is not
	// already in the reader may take as long as the backend likes.
	if head.chunked || head.length < 0 || int64(c.br.Buffered()) < head.length {
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	switch {
	case head.chunked:
		return relayChunked(w, c)
	case head.length >= 0:
		return copyBody(w, c, head.length)
	default:
		_, err = copyBody(w, c, -1)
		return false, err
	}
}

// copyBody copies n body bytes (to EOF when n < 0) from c to w. What the
// reader already holds goes out straight from its buffer; the rest is read
// past it into a pooled buffer.
func copyBody(w io.Writer, c *upConn, n int64) (complete bool, err error) {
	var bp *[]byte
	defer func() {
		if bp != nil {
			relayBufs.Put(bp)
		}
	}()
	for n != 0 {
		if held := c.br.Buffered(); held > 0 {
			if n > 0 && int64(held) > n {
				held = int(n)
			}
			chunk, _ := c.br.Peek(held)
			if _, werr := w.Write(chunk); werr != nil {
				return false, nil
			}
			_, _ = c.br.Discard(held)
			if n > 0 {
				n -= int64(held)
			}
			continue
		}
		if bp == nil {
			bp = relayBufs.Get().(*[]byte)
		}
		buf := *bp
		if n > 0 && int64(len(buf)) > n {
			buf = buf[:n]
		}
		got, rerr := c.br.Read(buf)
		if got == 0 {
			if rerr == io.EOF && n < 0 {
				return true, nil
			}
			if rerr == io.EOF {
				rerr = io.ErrUnexpectedEOF
			}
			return false, rerr
		}
		if _, werr := w.Write(buf[:got]); werr != nil {
			return false, nil
		}
		if n > 0 {
			n -= int64(got)
		}
	}
	return true, nil
}

// relayChunked de-chunks the response body into w and consumes the trailer
// section (trailers are hop-by-hop here and not forwarded).
func relayChunked(w io.Writer, c *upConn) (bool, error) {
	for {
		size, err := readChunkSize(c.br)
		if err != nil {
			return false, err
		}
		if size == 0 {
			break
		}
		if complete, err := copyBody(w, c, size); !complete {
			return false, err
		}
		if err := expectCRLF(c.br); err != nil {
			return false, err
		}
	}
	for total := 0; ; {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return false, fmt.Errorf("chunked trailer: %w", err)
		}
		if len(line) == 1 || (len(line) == 2 && line[0] == '\r') {
			return true, nil
		}
		if total += len(line); total > maxResponseHead {
			return false, fmt.Errorf("%w: chunked trailer longer than %d bytes", errMalformedHead, maxResponseHead)
		}
	}
}

var errMalformedChunk = errors.New("malformed chunked encoding")

// readChunkSize reads one "hex[;ext]\r\n" chunk-size line.
func readChunkSize(br *bufio.Reader) (int64, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("chunk size: %w", err)
	}
	var n int64
	digits := 0
	for _, c := range line {
		var d byte
		switch {
		case '0' <= c && c <= '9':
			d = c - '0'
		case 'a' <= c && c <= 'f':
			d = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			d = c - 'A' + 10
		default:
			if digits == 0 || (c != ';' && c != '\r' && c != '\n' && c != ' ' && c != '\t') {
				return 0, errMalformedChunk
			}
			return n, nil
		}
		if digits++; digits > 15 {
			return 0, errMalformedChunk
		}
		n = n<<4 | int64(d)
	}
	return 0, errMalformedChunk
}

// expectCRLF consumes the line end that follows a chunk's data.
func expectCRLF(br *bufio.Reader) error {
	b, err := br.ReadByte()
	if err == nil && b == '\r' {
		b, err = br.ReadByte()
	}
	if err != nil {
		return fmt.Errorf("chunk end: %w", err)
	}
	if b != '\n' {
		return errMalformedChunk
	}
	return nil
}
