package l7

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The proxy path's backend side: a raw HTTP/1.1 relay over pooled keep-alive
// connections. The inbound side is inbound.go's server loop; the relay writes
// the request head from the parsed inbound head and the backend's response
// head, less its hop-by-hop headers, straight into the client connection's
// writer, so one proxied request costs a head write, a head parse and a body
// copy — no request object, no header map, no per-connection goroutines.

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
// reader, a scratch buffer that holds the request head while it is written
// and the response head while it is parsed, and that head's header lines.
type upConn struct {
	conn      net.Conn
	br        *bufio.Reader
	scratch   []byte
	fields    []field // the response head's header lines, into scratch
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

// appendURI appends the backend request target for tail (the path under
// /svc/<org>/, escaped) and the raw query.
func (u *upstream) appendURI(dst []byte, tail, query []byte) []byte {
	dst = append(dst, u.base...)
	dst = append(dst, '/')
	dst = append(dst, tail...)
	if len(query) > 0 {
		dst = append(dst, '?')
		dst = append(dst, query...)
	}
	return dst
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
		c.scratch, c.fields = nil, nil
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

// takeBody buffers a body of declared length n (-1: unknown) read from src
// when n is at most maxReplayBody, and leaves anything else to be streamed.
// A read error is the client's.
func takeBody(src io.Reader, n int64) (reqBody, error) {
	switch {
	case n == 0 || src == nil:
		return reqBody{}, nil
	case n > 0 && n <= maxReplayBody:
		bp := relayBufs.Get().(*[]byte)
		b := reqBody{buf: (*bp)[:n], pooled: bp}
		if _, err := io.ReadFull(src, b.buf); err != nil {
			b.release()
			return reqBody{}, err
		}
		return b, nil
	default:
		return reqBody{stream: src, length: n}, nil
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

// exchange relays c's request to u and the response to c. committed reports
// that the response head is in c's writer, after which no other reply can be
// sent. A reused connection that fails before one response byte arrived was
// closed by the backend while idle (nothing watches a pooled connection for
// that): it is replaced by a fresh dial once, transparently, for every
// request that can be sent again — no body, or a buffered one, which a
// failover would replay anyway. Such a failure says nothing about the
// backend's health and is not returned. A streamed body cannot be sent
// twice, so it is not risked on a pooled connection.
func (rl *relay) exchange(u *upstream, c *inConn, tail []byte, body *reqBody, sp *obs.Span) (committed bool, err error) {
	var uc *upConn
	if body.replayable() {
		uc = u.get(time.Now())
	}
	for {
		reused := uc != nil
		if reused {
			rl.reuses.Add(1)
		} else if uc, err = rl.dial(u); err != nil {
			return false, err
		}
		var stale bool
		committed, stale, err = roundTrip(uc, u, c, tail, body, sp)
		if !stale || !reused {
			return committed, err
		}
		rl.staleRetries.Add(1)
		uc = nil
	}
}

// roundTrip performs one exchange on uc and then pools or closes it. stale
// reports a failure before any response byte was read.
func roundTrip(uc *upConn, u *upstream, c *inConn, tail []byte, body *reqBody, sp *obs.Span) (committed, stale bool, err error) {
	reusable := false
	defer func() {
		if reusable {
			u.put(uc)
		} else {
			uc.conn.Close()
		}
	}()

	_ = uc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	uc.scratch = appendRequestHead(uc.scratch[:0], u, &c.req, tail, body)
	_, werr := uc.conn.Write(uc.scratch)
	if werr == nil {
		werr = writeBody(uc.conn, body)
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
	_ = uc.conn.SetReadDeadline(time.Now().Add(wait))
	if _, err = uc.br.Peek(1); err != nil {
		if werr != nil {
			return false, true, werr
		}
		// Silence until the deadline is a slow backend, not a stale connection.
		var ne net.Error
		return false, !(errors.As(err, &ne) && ne.Timeout()), err
	}
	var head respHead
	if head, uc.scratch, err = readResponseHead(uc.br, uc.scratch[:0], uc.fields[:0]); err != nil {
		return false, false, err
	}
	uc.fields = head.fields[:0]
	sp.StampFirstByte()
	isHead := c.req.isHead()
	w, rechunk := c.relayHead(&head, isHead)
	var complete bool
	if complete, err = relayBody(w, uc, isHead, head); err != nil {
		return true, false, err
	}
	if rechunk {
		c.chunked.close() // the body ended, at EOF when it had no length
	}
	reusable = werr == nil && complete && !head.close && uc.br.Buffered() == 0
	return true, false, nil
}

// hopByHopNames are the headers meaningful for one connection only, which
// must not cross the relay (RFC 9110 §7.6.1). Expect is dropped with them:
// by the time the head is written the body is on hand.
var hopByHopNames = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
	"Transfer-Encoding", "Upgrade", "Expect"}

// hopByHop reports whether a header name, in any case, is one of
// hopByHopNames.
func hopByHop(name []byte) bool {
	for _, h := range hopByHopNames {
		if asciiEqualFold(name, h) {
			return true
		}
	}
	return false
}

// endToEnd reports whether a header line crosses the relay: not hop-by-hop,
// not named by a Connection header among fields, and not one of the framing
// or routing headers the relay writes itself.
func endToEnd(fields []field, name []byte) bool {
	return !hopByHop(name) && !asciiEqualFold(name, "Content-Length") && !asciiEqualFold(name, "Host") &&
		!namedByConnection(fields, name)
}

// namedByConnection reports whether name is listed in one of the Connection
// fields among fields.
func namedByConnection(fields []field, name []byte) bool {
	for _, f := range fields {
		if asciiEqualFold(f.name, "Connection") && listedBytes(f.value, name) {
			return true
		}
	}
	return false
}

// appendRequestHead writes the request line and the end-to-end header lines
// of the inbound request, with the relay's own Host and body framing. The
// inbound parser has already validated every name and value.
func appendRequestHead(dst []byte, u *upstream, req *inRequest, tail []byte, body *reqBody) []byte {
	dst = append(dst, req.method...)
	dst = append(dst, ' ')
	dst = u.appendURI(dst, tail, req.query)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, u.host...)
	for _, f := range req.fields {
		if endToEnd(req.fields, f.name) {
			dst = appendField(dst, f)
		}
	}
	switch m := string(req.method); {
	case body.stream != nil && body.length < 0:
		dst = append(dst, "\r\nTransfer-Encoding: chunked"...)
	case body.stream != nil:
		dst = append(dst, "\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, body.length, 10)
	case len(body.buf) > 0 || m == "POST" || m == "PUT" || m == "PATCH":
		dst = append(dst, "\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body.buf)), 10)
	}
	return append(dst, "\r\n\r\n"...)
}

// appendField appends "\r\nName: value".
func appendField(dst []byte, f field) []byte {
	dst = append(dst, "\r\n"...)
	dst = append(dst, f.name...)
	dst = append(dst, ": "...)
	return append(dst, f.value...)
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

// respHead is a parsed response head. Its slices point into the upstream
// connection's scratch buffer and live until the next exchange on it.
type respHead struct {
	status  int
	reason  []byte  // the status line after the code, as sent
	fields  []field // every header line in order, hop-by-hop ones included
	length  int64   // declared Content-Length, -1 when absent
	chunked bool
	close   bool // the connection must not be reused
	date    bool // the backend sent a Date
}

var errMalformedHead = errors.New("malformed response head")

// readResponseHead reads response heads from br until a final (non-1xx) one
// and parses it in place: scratch is the read buffer and fields the header
// line slice, both returned (possibly grown) for reuse. Nothing is sized by
// a number the backend sent.
func readResponseHead(br *bufio.Reader, scratch []byte, fields []field) (respHead, []byte, error) {
	for interim := 0; ; interim++ {
		var err error
		if scratch, err = readHeadBlock(br, scratch[:0]); err != nil {
			return respHead{}, scratch, err
		}
		head, err := parseHead(scratch, fields[:0])
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
		fields = head.fields
	}
}

// readHeadBlock appends one head (through its blank line) to dst. Lines
// longer than the reader's buffer arrive in fragments.
func readHeadBlock(br *bufio.Reader, dst []byte) ([]byte, error) {
	for lineStart := 0; ; {
		frag, err := br.ReadSlice('\n')
		dst = append(dst, frag...)
		if len(dst) > maxResponseHead {
			return dst, fmt.Errorf("%w: longer than %d bytes", errMalformedHead, maxResponseHead)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
		if line := dst[lineStart:]; len(line) == 1 || (len(line) == 2 && line[0] == '\r') {
			return dst, nil
		}
		lineStart = len(dst)
	}
}

// parseHead parses one head block, appending its header lines to fields.
func parseHead(block []byte, fields []field) (respHead, error) {
	head := respHead{length: -1, fields: fields}
	line, rest := cutLineBytes(block)
	// "HTTP/1.x SSS[ reason]"
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || !isDigit(line[7]) || line[8] != ' ' ||
		(len(line) > 12 && line[12] != ' ') {
		return head, fmt.Errorf("%w: status line %.64q", errMalformedHead, line)
	}
	for _, c := range line[9:12] {
		if !isDigit(c) {
			return head, fmt.Errorf("%w: status line %.64q", errMalformedHead, line)
		}
		head.status = head.status*10 + int(c-'0')
	}
	if head.status < 100 {
		return head, fmt.Errorf("%w: status %d", errMalformedHead, head.status)
	}
	if head.reason = line[min(len(line), 13):]; !validFieldValue(head.reason) {
		return head, fmt.Errorf("%w: status line %.64q", errMalformedHead, line)
	}
	http10, keepAlive := line[7] == '0', false
	for len(rest) > 0 {
		line, rest = cutLineBytes(rest)
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isTokenBytes(line[:colon]) {
			return head, fmt.Errorf("%w: header line %.64q", errMalformedHead, line)
		}
		name, v := line[:colon], trimOWS(line[colon+1:])
		if !validFieldValue(v) {
			return head, fmt.Errorf("%w: header line %.64q", errMalformedHead, line)
		}
		switch {
		case asciiEqualFold(name, "Connection"):
			keepAlive = keepAlive || listedBytes(v, "keep-alive")
			head.close = head.close || listedBytes(v, "close")
		case asciiEqualFold(name, "Transfer-Encoding"):
			if !asciiEqualFold(v, "chunked") || head.chunked {
				return head, fmt.Errorf("%w: transfer encoding %.64q", errMalformedHead, v)
			}
			head.chunked = true
		case asciiEqualFold(name, "Content-Length"):
			n, err := parseLength(v)
			if err != nil || (head.length >= 0 && n != head.length) {
				return head, fmt.Errorf("%w: content length %.64q", errMalformedHead, v)
			}
			head.length = n
		case asciiEqualFold(name, "Date"):
			head.date = true
		}
		head.fields = append(head.fields, field{name, v})
	}
	if head.chunked {
		// Transfer-Encoding overrides a Content-Length sent beside it.
		head.length = -1
	}
	if http10 && !keepAlive {
		head.close = true
	}
	return head, nil
}

// parseLength parses a Content-Length value: decimal digits only.
func parseLength(s []byte) (int64, error) {
	if len(s) == 0 || len(s) > 18 {
		return 0, errMalformedHead
	}
	var n int64
	for _, c := range s {
		if !isDigit(c) {
			return 0, errMalformedHead
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

// relayBody copies the response body to w by the head's framing and reports
// whether the backend's side of the exchange ended where the connection can
// carry another. A backend failure is returned; a client that stopped
// reading is not one (the exchange just ends, incomplete).
func relayBody(w io.Writer, c *upConn, isHead bool, head respHead) (complete bool, err error) {
	if isHead || !bodyAllowed(head.status) {
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
	if err := skipTrailer(c.br); err != nil {
		return false, err
	}
	return true, nil
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
