package l7

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
)

// The service wire: the redirector's own HTTP/1.1 server loop, the inbound
// twin of upstream.go. Each connection keeps a reader, a writer and the
// buffers a request needs; a request head is parsed where it was read, a
// /svc/ request is admitted and answered — refused, redirected or relayed —
// with its reply written straight to the connection. No http.Request, header
// map or ResponseWriter is built for it. Admin and observability routes, /svc/
// paths that are not clean or need unescaping, and heads this parser leaves
// alone (folded header lines) are read again by http.ReadRequest and served
// by the redirector's ServeMux through a small buffering writer: they are
// rare, and their cost does not matter.

const (
	// maxRequestHead caps one request head (request line and headers); a
	// longer one is answered 431 and the connection closed.
	maxRequestHead = 64 << 10
	// headTimeout bounds reading one request head from its first byte. An
	// idle keep-alive connection waits for that byte without a deadline.
	headTimeout = 10 * time.Second
	// maxDrainBody is how much of an unread request body is skipped to keep
	// the connection once the reply is out; a longer body closes it.
	maxDrainBody      = 256 << 10
	inboundBufferSize = 4 << 10
	// maxKeptHead is the largest request or reply head buffer a connection
	// keeps between requests.
	maxKeptHead = 8 << 10
	// lingerTimeout is how long a connection closed with input unread keeps
	// reading what the client still sends, so that the reply is not lost to
	// a reset.
	lingerTimeout = 500 * time.Millisecond
)

// server accepts the redirector's connections, one goroutine each.
type server struct {
	r  *Redirector
	ln net.Listener
	// answer replies to a clean request for /svc/<org>/<tail>, tail escaped:
	// (*inConn).admit, which admits and routes it.
	answer func(c *inConn, org, tail []byte)

	mu    sync.Mutex
	conns map[*inConn]struct{}
	done  chan struct{} // closed when the accept loop has returned
}

func newServer(r *Redirector, ln net.Listener, answer func(c *inConn, org, tail []byte)) *server {
	return &server{r: r, ln: ln, answer: answer, conns: map[*inConn]struct{}{}, done: make(chan struct{})}
}

// serve accepts connections until close.
func (s *server) serve() {
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of descriptors or a connection reset before accept: wait a
			// little, as net/http does, instead of spinning.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c := &inConn{s: s, conn: conn, br: bufio.NewReaderSize(conn, inboundBufferSize)}
		c.bw = bufio.NewWriterSize(conn, inboundBufferSize)
		c.chunked.bw = c.bw
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// close stops accepting, waits for the accept loop to return and closes
// every connection; a request in flight ends with its connection.
func (s *server) close() error {
	err := s.ln.Close()
	<-s.done // no connection is added after this
	s.mu.Lock()
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	return err
}

func (s *server) drop(c *inConn) {
	c.conn.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// field is one header line, sliced out of its head in place.
type field struct{ name, value []byte }

// inRequest is one parsed request head. Its slices point into the
// connection's head buffer and live until the next head is read.
type inRequest struct {
	method, target []byte
	path, query    []byte // target split at its first '?'
	minor          int    // HTTP/1.minor
	fields         []field
	length         int64 // declared Content-Length, -1 when absent
	chunked        bool
	close          bool // the connection ends after the reply
	expect         bool // Expect: 100-continue with a body to come
}

func (q *inRequest) isHead() bool { return string(q.method) == "HEAD" }

// bodyLength is the body's length for the relay: 0 when there is none, -1
// when it is chunked.
func (q *inRequest) bodyLength() int64 {
	switch {
	case q.chunked:
		return -1
	case q.length < 0:
		return 0
	}
	return q.length
}

// inConn is one client connection and the buffers its requests reuse.
// Replies are written to bw without checking each write: a write error
// sticks in the bufio.Writer, and the flush after the request reports it and
// ends the connection.
type inConn struct {
	s    *server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	head []byte // the request head as read
	out  []byte // reply head under construction
	req  inRequest

	// body is the request body as the reply reads it: limited to the
	// declared length, de-chunked, or fed from http.ReadRequest's reader
	// (the fallback), with Expect: 100-continue answered on the first read.
	body    bodyReader
	chunked chunkWriter // reply body framing for a relayed unknown length

	closeAfter bool // no further request is read from this connection
	linger     bool // the close follows an error reply: drain before it
}

// serve reads and answers requests until the connection ends.
func (c *inConn) serve() {
	defer c.s.drop(c)
	for {
		if c.br.Buffered() == 0 {
			if _, err := c.br.Peek(1); err != nil {
				return
			}
		}
		_ = c.conn.SetReadDeadline(time.Now().Add(headTimeout))
		status, ok := c.readHead()
		_ = c.conn.SetReadDeadline(time.Time{})
		if !ok {
			return // the client went away or stalled mid-head
		}
		c.closeAfter = false
		c.body.reset(c, nil, false)
		if status == 0 {
			status = c.parse()
		}
		switch status {
		case 0:
			c.service()
		case statusFallback:
			c.fallback()
		default:
			c.writeError(status)
		}
		if c.bw.Flush() != nil {
			return
		}
		if c.closeAfter {
			c.lingerClose()
			return
		}
		if cap(c.head) > maxKeptHead {
			c.head = nil
		}
		if cap(c.out) > maxKeptHead {
			c.out = nil
		}
	}
}

// lingerClose, after an error reply or with a request body left unread,
// closes the write side and reads what the client still sends for a moment:
// closing with unread input would reset the connection, and a reset can
// destroy the reply before the client reads it.
func (c *inConn) lingerClose() {
	tc, ok := c.conn.(*net.TCPConn)
	if !ok || !c.linger && c.body.eof {
		return
	}
	_ = tc.CloseWrite()
	_ = tc.SetReadDeadline(time.Now().Add(lingerTimeout))
	_, _ = io.Copy(io.Discard, tc)
}

// statusFallback is parse's verdict for a head the service path leaves to
// http.ReadRequest and the ServeMux.
const statusFallback = -1

// readHead reads one request head, through its blank line, into c.head. It
// returns 431 for a head over maxRequestHead and ok false when the
// connection failed first.
func (c *inConn) readHead() (status int, ok bool) {
	c.head = c.head[:0]
	for lineStart := 0; ; {
		frag, err := c.br.ReadSlice('\n')
		if len(c.head)+len(frag) > maxRequestHead {
			return http.StatusRequestHeaderFieldsTooLarge, true
		}
		c.head = append(c.head, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return 0, false
		}
		if line := c.head[lineStart:]; len(line) == 1 || (len(line) == 2 && line[0] == '\r') {
			return 0, true
		}
		lineStart = len(c.head)
	}
}

// parse parses c.head into c.req: 0 for a service request, statusFallback
// for one the ServeMux answers, or the error status to reply with.
func (c *inConn) parse() int {
	q := &c.req
	*q = inRequest{fields: q.fields[:0], length: -1}
	line, rest := cutLineBytes(c.head)
	// "METHOD SP target SP HTTP/1.x", split at the first two spaces as
	// net/http splits it.
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return http.StatusBadRequest
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 {
		return http.StatusBadRequest
	}
	q.method, q.target = line[:sp1], line[sp1+1:sp1+1+sp2]
	proto := line[sp1+2+sp2:]
	if !isTokenBytes(q.method) || len(q.target) == 0 {
		return http.StatusBadRequest
	}
	switch {
	case len(proto) == 8 && string(proto[:7]) == "HTTP/1." && isDigit(proto[7]):
		q.minor = int(proto[7] - '0')
	case len(proto) == 8 && string(proto[:5]) == "HTTP/" && isDigit(proto[5]) && proto[6] == '.' && isDigit(proto[7]):
		return http.StatusHTTPVersionNotSupported
	default:
		return http.StatusBadRequest
	}

	var hosts, teCount int
	var te, expect []byte
	folded, keepAlive := false, false
	for len(rest) > 0 {
		line, rest = cutLineBytes(rest)
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			// An obs-fold continuation line: http.ReadRequest joins it to
			// the line before.
			folded = true
			continue
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isTokenBytes(line[:colon]) {
			return http.StatusBadRequest
		}
		name, value := line[:colon], trimOWS(line[colon+1:])
		if !validFieldValue(value) {
			return http.StatusBadRequest
		}
		switch {
		case asciiEqualFold(name, "Host"):
			hosts++
		case asciiEqualFold(name, "Content-Length"):
			n, err := parseLength(value)
			if err != nil || (q.length >= 0 && n != q.length) {
				return http.StatusBadRequest
			}
			q.length = n
		case asciiEqualFold(name, "Transfer-Encoding"):
			te = value
			teCount++
		case asciiEqualFold(name, "Connection"):
			q.close = q.close || listedBytes(value, "close")
			keepAlive = keepAlive || listedBytes(value, "keep-alive")
		case asciiEqualFold(name, "Expect"):
			if expect == nil {
				expect = value
			}
		}
		q.fields = append(q.fields, field{name, value})
	}
	if q.minor >= 1 && hosts == 0 || hosts > 1 {
		return http.StatusBadRequest
	}
	if teCount > 0 {
		// A body framed two ways is refused outright: whichever framing a
		// next hop believed, the other would smuggle a request past it.
		if q.length >= 0 {
			return http.StatusBadRequest
		}
		if q.minor >= 1 {
			if teCount > 1 || !asciiEqualFold(te, "chunked") {
				return http.StatusNotImplemented
			}
			q.chunked = true
		}
	}
	if expect != nil {
		if !listedBytes(expect, "100-continue") {
			return http.StatusExpectationFailed
		}
		q.expect = q.minor >= 1 && (q.length > 0 || q.chunked)
	}
	if q.minor == 0 && !keepAlive {
		q.close = true
	}
	q.path, q.query = q.target, nil
	if i := bytes.IndexByte(q.target, '?'); i >= 0 {
		q.path, q.query = q.target[:i], q.target[i+1:]
	}
	if folded || !bytes.HasPrefix(q.path, []byte("/svc/")) || !plainPath(q.path) || !validQuery(q.query) || !cleanPath(q.path) {
		return statusFallback
	}
	return 0
}

// service answers a request for /svc/<org>/<tail> on the service path.
func (c *inConn) service() {
	org, tail, _ := bytes.Cut(c.req.path[len("/svc/"):], []byte("/"))
	var src io.Reader
	switch {
	case c.req.chunked:
		src = httputil.NewChunkedReader(c.br)
	case c.req.length > 0:
		c.body.limit = io.LimitedReader{R: c.br, N: c.req.length}
		src = &c.body.limit
	}
	c.body.reset(c, src, c.req.expect)
	c.body.trailer = c.req.chunked
	c.s.answer(c, org, tail)
	c.finishBody()
}

// admit answers a service request for org's tail: the relayed response in
// proxy mode, a 302 to the chosen backend otherwise, the refusal when credit
// or backends ran out, or 404 for an unknown org. Lock-free: one sharded-
// plane admission, one atomic round-robin backend choice. When tracing is
// enabled the request may carry a span (nil-safe stamps, no allocation); its
// ID goes to the latency histogram as an exemplar.
func (c *inConn) admit(org, tail []byte) {
	r := c.s.r
	start := time.Now()
	var sp *obs.Span
	if p, known := r.cfg.Orgs[string(org)]; !known {
		c.notFound()
	} else {
		sp = r.Begin(p)
		d, det := r.Admission().AdmitTraced(p, -1, 1)
		node.StampAdmit(sp, det)
		var target *upstream
		if d.Admitted {
			target = r.chooseBackend(d.Owner, nil)
			sp.StampBackend()
		}
		switch {
		case target == nil:
			c.refuse()
		case r.cfg.Proxy:
			r.proxy(c, d.Owner, target, tail, sp)
		default:
			c.redirect(target, tail)
		}
	}
	r.lat.ObserveExemplar(time.Since(start), sp.Finish())
}

// finishBody leaves the connection at the next request: a body the reply did
// not read is skipped when it is short, and closes the connection otherwise
// — or at once when the client still waits for a 100 Continue to send it.
func (c *inConn) finishBody() {
	b := &c.body
	if b.eof || c.closeAfter {
		return
	}
	if b.expect && !b.continued {
		c.closeAfter = true
		return
	}
	n, err := io.CopyN(io.Discard, b, maxDrainBody+1)
	if err != io.EOF || n > maxDrainBody {
		c.closeAfter = true
	}
}

// bodyReader reads a request body from src, sending the interim 100
// Continue before the first read when the client asked for one.
type bodyReader struct {
	c     *inConn
	src   io.Reader
	limit io.LimitedReader
	// trailer: src is httputil's chunked reader, which stops at the last
	// chunk; the trailer section after it is read here.
	trailer   bool
	expect    bool
	continued bool
	eof       bool
}

func (b *bodyReader) reset(c *inConn, src io.Reader, expect bool) {
	b.c, b.src, b.expect = c, src, expect
	b.trailer, b.continued, b.eof = false, false, src == nil
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.eof {
		return 0, io.EOF
	}
	if b.expect && !b.continued {
		b.continued = true
		if _, err := b.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
		if err := b.c.bw.Flush(); err != nil {
			return 0, err
		}
	}
	n, err := b.src.Read(p)
	if err == io.EOF && b.trailer {
		if terr := skipTrailer(b.c.br); terr != nil {
			err = terr
		}
	}
	if err == io.EOF {
		b.eof = true
	} else if err != nil {
		// A body that breaks off cannot be skipped to the next request.
		b.c.closeAfter = true
	}
	return n, err
}

// chunkWriter frames a relayed body of unknown length as HTTP/1.1 chunks.
type chunkWriter struct {
	bw  *bufio.Writer
	hex [16]byte
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	w.bw.Write(strconv.AppendInt(w.hex[:0], int64(len(p)), 16))
	w.bw.WriteString("\r\n")
	w.bw.Write(p)
	if _, err := w.bw.WriteString("\r\n"); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w *chunkWriter) close() { w.bw.WriteString("0\r\n\r\n") }

// relayHead writes the reply head of a relayed response: the backend's
// status and end-to-end headers, its Date or ours, and the framing this
// connection needs. It returns the writer the body goes through and whether
// that writer chunks it (an HTTP/1.1 client, a body of unknown length).
func (c *inConn) relayHead(head *respHead, isHead bool) (w io.Writer, rechunk bool) {
	bodyless := isHead || !bodyAllowed(head.status)
	out := c.statusLine(head.status, head.reason)
	for _, f := range head.fields {
		if endToEnd(head.fields, f.name) {
			out = appendField(out, f)
		}
	}
	if !head.date {
		out = appendDate(append(out, "\r\nDate: "...))
	}
	rechunk = !bodyless && head.length < 0 && c.req.minor >= 1
	switch {
	case head.length >= 0:
		out = append(out, "\r\nContent-Length: "...)
		out = strconv.AppendInt(out, head.length, 10)
	case rechunk:
		out = append(out, "\r\nTransfer-Encoding: chunked"...)
	}
	out = c.appendConnection(out, bodyless || head.length >= 0 || rechunk)
	c.out = append(out, "\r\n\r\n"...)
	c.bw.Write(c.out)
	if rechunk {
		return &c.chunked, true
	}
	return c.bw, false
}

// Fixed replies. Their headers are appended to the connection's reply
// buffer; only the Date value changes, once a second.
var (
	refusalBody  = []byte("over quota this window\n")
	notFoundBody = []byte("404 page not found\n")
)

// statusLine starts a reply head in c.out with its status line, in the
// request's HTTP version; the reason phrase is status's own when reason is
// empty.
func (c *inConn) statusLine(status int, reason []byte) []byte {
	out := append(c.out[:0], "HTTP/1."...)
	out = append(out, byte('0'+min(c.req.minor, 1)), ' ')
	out = strconv.AppendInt(out, int64(status), 10)
	out = append(out, ' ')
	if len(reason) > 0 {
		return append(out, reason...)
	}
	return append(out, http.StatusText(status)...)
}

// beginReply starts a reply head of the redirector's own: status line and
// Date.
func (c *inConn) beginReply(status int) []byte {
	return appendDate(append(c.statusLine(status, nil), "\r\nDate: "...))
}

// endReply closes the head in out with the body's length and the
// connection's fate, and writes head and body. A HEAD request gets the head
// only.
func (c *inConn) endReply(out []byte, body []byte) {
	if b := &c.body; b.expect && !b.continued && !b.eof {
		c.closeAfter = true // the body the client holds back is never read
	}
	out = append(out, "\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(body)), 10)
	out = c.appendConnection(out, true)
	c.out = append(out, "\r\n\r\n"...)
	c.bw.Write(c.out)
	if !c.req.isHead() {
		c.bw.Write(body)
	}
}

// appendConnection appends the Connection header the reply needs, if any:
// close when this is the last reply on an HTTP/1.1 connection, keep-alive
// when an HTTP/1.0 client asked to keep a connection whose reply is framed.
func (c *inConn) appendConnection(out []byte, framed bool) []byte {
	c.closeAfter = c.closeAfter || c.req.close || (c.req.minor == 0 && !framed)
	switch {
	case c.closeAfter && c.req.minor >= 1:
		return append(out, "\r\nConnection: close"...)
	case !c.closeAfter && c.req.minor == 0:
		return append(out, "\r\nConnection: keep-alive"...)
	}
	return out
}

// plainText appends the headers of a fixed text/plain reply.
func plainText(out []byte) []byte {
	return append(out, "\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff"...)
}

// refuse tells the client to come back: 503 in proxy mode (the single-round-
// trip variant), otherwise a 302 to this redirector itself (implicit
// queuing). Both carry Retry-After: 0.
func (c *inConn) refuse() {
	r := c.s.r
	status := http.StatusServiceUnavailable
	if !r.cfg.Proxy {
		status = http.StatusFound
	}
	out := append(plainText(c.beginReply(status)), "\r\nRetry-After: 0"...)
	if !r.cfg.Proxy {
		out = append(out, "\r\nLocation: "...)
		out = append(out, r.selfURL...)
		out = append(out, c.req.target...)
	}
	c.endReply(out, refusalBody)
}

// redirect sends the client to target with a 302 and an empty body.
func (c *inConn) redirect(target *upstream, tail []byte) {
	out := append(c.beginReply(http.StatusFound), "\r\nLocation: "...)
	out = append(out, target.origin...)
	c.endReply(target.appendURI(out, tail, c.req.query), nil)
}

func (c *inConn) notFound() {
	c.endReply(plainText(c.beginReply(http.StatusNotFound)), notFoundBody)
}

// writeError answers a head that cannot be served and ends the connection.
// The body is the status, as in net/http's own error replies.
func (c *inConn) writeError(status int) {
	c.closeAfter, c.linger = true, true
	c.req.minor, c.req.method = 1, nil
	body := append(strconv.AppendInt(nil, int64(status), 10), ' ')
	c.endReply(plainText(c.beginReply(status)), append(body, http.StatusText(status)...))
}

// writeBadGateway answers a proxied request no backend could serve.
func (c *inConn) writeBadGateway(err error) {
	c.endReply(plainText(c.beginReply(http.StatusBadGateway)), []byte(err.Error()+"\n"))
}

// dateStamp is the Date header value of one second.
type dateStamp struct {
	sec   int64
	value []byte
}

var currentDate atomic.Pointer[dateStamp]

// appendDate appends the current HTTP Date value, formatted once a second.
func appendDate(dst []byte) []byte {
	now := time.Now()
	d := currentDate.Load()
	if d == nil || d.sec != now.Unix() {
		d = &dateStamp{sec: now.Unix(), value: now.UTC().AppendFormat(nil, http.TimeFormat)}
		currentDate.Store(d)
	}
	return append(dst, d.value...)
}

// fallback serves a request the service path leaves alone: http.ReadRequest
// reads the head again (and the body through it), a clean /svc/ path goes
// through the service path by its decoded org and tail, anything else to the
// ServeMux through a buffering writer. When the reader took bytes of a
// following request with it, the connection closes after the reply.
func (c *inConn) fallback() {
	br := bufio.NewReaderSize(io.MultiReader(bytes.NewReader(c.head), c.br), inboundBufferSize)
	hreq, err := http.ReadRequest(br)
	if err != nil {
		c.writeError(http.StatusBadRequest)
		return
	}
	hreq.RemoteAddr = c.conn.RemoteAddr().String()
	c.req.close = c.req.close || hreq.Close
	c.body.reset(c, hreq.Body, c.req.expect)
	if p := hreq.URL.Path; strings.HasPrefix(p, "/svc/") && path.Clean(p) == strings.TrimSuffix(p, "/") {
		org, tail, _ := strings.Cut(strings.TrimPrefix(p, "/svc/"), "/")
		c.fromRequest(hreq)
		c.s.answer(c, []byte(org), []byte((&url.URL{Path: tail}).EscapedPath()))
	} else {
		hreq.Body = io.NopCloser(&c.body)
		w := &bufferedWriter{h: http.Header{}}
		c.s.r.mux.ServeHTTP(w, hreq)
		w.writeTo(c)
	}
	c.finishBody()
	if br.Buffered() > 0 {
		c.closeAfter = true
	}
}

// fromRequest fills c.req from a request http.ReadRequest parsed, for the
// service path: method, raw query, header lines and framing. The head
// buffer is left alone (the reader may still be reading from it).
func (c *inConn) fromRequest(hreq *http.Request) {
	q := &c.req
	q.method = []byte(hreq.Method)
	q.target = []byte(hreq.RequestURI)
	q.query = []byte(hreq.URL.RawQuery)
	q.fields = q.fields[:0]
	for k, vs := range hreq.Header {
		for _, v := range vs {
			q.fields = append(q.fields, field{[]byte(k), []byte(v)})
		}
	}
	q.length, q.chunked = hreq.ContentLength, hreq.ContentLength < 0
	if hreq.Body == nil || hreq.Body == http.NoBody {
		q.length, q.chunked = 0, false
	}
}

// bufferedWriter is the ResponseWriter of the fallback path: it keeps the
// whole reply and writes it, framed by its length, when the handler returns.
type bufferedWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *bufferedWriter) Header() http.Header { return w.h }

func (w *bufferedWriter) WriteHeader(status int) {
	if w.status == 0 && status >= 200 {
		w.status = status
	}
}

func (w *bufferedWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *bufferedWriter) writeTo(c *inConn) {
	w.WriteHeader(http.StatusOK)
	out := c.beginReply(w.status)
	body := w.body.Bytes()
	if !bodyAllowed(w.status) {
		body = nil
	}
	if _, ok := w.h["Content-Type"]; !ok && len(body) > 0 {
		w.h.Set("Content-Type", http.DetectContentType(body))
	}
	for _, k := range []string{"Date", "Content-Length", "Connection", "Transfer-Encoding"} {
		delete(w.h, k)
	}
	var hb bytes.Buffer
	_ = w.h.Write(&hb)
	if hb.Len() > 0 {
		out = append(out, "\r\n"...)
		out = append(out, bytes.TrimSuffix(hb.Bytes(), []byte("\r\n"))...)
	}
	c.endReply(out, body)
}

// bodyAllowed reports whether a reply with this status carries a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// skipTrailer consumes a chunked body's trailer section through its blank
// line (trailers are not forwarded).
func skipTrailer(br *bufio.Reader) error {
	for total := 0; ; {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("chunked trailer: %w", err)
		}
		if len(line) == 1 || (len(line) == 2 && line[0] == '\r') {
			return nil
		}
		if total += len(line); total > maxResponseHead {
			return fmt.Errorf("%w: trailer longer than %d bytes", errMalformedChunk, maxResponseHead)
		}
	}
}

// cutLineBytes splits b after its first line, dropping the line's CRLF or LF.
func cutLineBytes(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), rest
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isTokenBytes reports whether b is a non-empty RFC 9110 token (a method or
// header name).
func isTokenBytes(b []byte) bool {
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c)) && strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0 {
			return false
		}
	}
	return len(b) > 0
}

// validFieldValue reports whether a header value holds no control byte
// other than a tab.
func validFieldValue(v []byte) bool {
	for _, c := range v {
		if (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}

// trimOWS trims the optional whitespace around a header value.
func trimOWS(b []byte) []byte { return bytes.Trim(b, " \t") }

// asciiEqualFold compares b to s ignoring ASCII case.
func asciiEqualFold[S ~string | ~[]byte](b []byte, s S) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// listedBytes reports whether a comma-separated header value holds token.
func listedBytes[S ~string | ~[]byte](list []byte, token S) bool {
	for len(list) > 0 {
		var item []byte
		item, list, _ = bytes.Cut(list, []byte(","))
		if asciiEqualFold(trimOWS(item), token) {
			return true
		}
	}
	return false
}

// plainPath reports whether a request path is one that unescaping and
// re-escaping leave as it is: it holds only bytes a URL path carries
// unescaped, and no percent-escape.
func plainPath(p []byte) bool {
	for _, c := range p {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c)) && strings.IndexByte("-_.~$&+,/:;=@", c) < 0 {
			return false
		}
	}
	return true
}

// validQuery reports whether a raw query holds no control byte (net/url
// refuses those).
func validQuery(q []byte) bool {
	for _, c := range q {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// cleanPath reports whether path.Clean leaves p as it is, bar one trailing
// slash: no empty, "." or ".." segment.
func cleanPath(p []byte) bool {
	if len(p) == 0 || p[0] != '/' {
		return false
	}
	for rest := p[1:]; ; {
		seg, more, found := bytes.Cut(rest, []byte("/"))
		if !found {
			return string(seg) != "." && string(seg) != ".."
		}
		if len(seg) == 0 || string(seg) == "." || string(seg) == ".." {
			return false
		}
		rest = more
	}
}
