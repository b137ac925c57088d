package main

import (
	"bufio"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// benchEpoch is the one clock every stamp in the process is taken against:
// generator, backends and spans all report nanoseconds since it, so a
// backend's receive stamp can be subtracted from a client's send stamp.
var benchEpoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(benchEpoch)) }

// bodySize is the fixed reply payload; the generator checks every OK reply
// carries exactly this many bytes.
const bodySize = 1024

var replyBody = make([]byte, bodySize)

// Stamp headers: when the backend saw the request and when it began the
// reply. The L7 proxy relays response headers untouched, so they reach the
// client without any table shared between backend and generator.
const (
	hdrRecv  = "X-Bench-Recv"
	hdrReply = "X-Bench-Reply"
)

// httpBackend is the benchmark-owned stand-in for the provider's servers:
// zero service time, so everything between the client's send and the
// receive stamp is the redirector's inbound path, and everything after the
// reply stamp its outbound path.
type httpBackend struct {
	ln    net.Listener
	srv   *http.Server
	conns atomic.Int64 // connections accepted
	reqs  atomic.Int64
}

func newHTTPBackend() (*httpBackend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &httpBackend{ln: ln}
	b.srv = &http.Server{
		Handler: http.HandlerFunc(b.handle),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				b.conns.Add(1)
			}
		},
	}
	go func() { _ = b.srv.Serve(ln) }()
	return b, nil
}

func (b *httpBackend) handle(w http.ResponseWriter, _ *http.Request) {
	recv := sinceEpoch()
	b.reqs.Add(1)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(bodySize))
	h.Set(hdrRecv, strconv.FormatInt(recv, 10))
	h.Set(hdrReply, strconv.FormatInt(sinceEpoch(), 10))
	_, _ = w.Write(replyBody)
}

func (b *httpBackend) url() string  { return "http://" + b.ln.Addr().String() }
func (b *httpBackend) close() error { return b.srv.Close() }

// lineBackend is the Layer-4 counterpart: one request line per connection,
// answered "OK <line> <recv> <reply>\n" with the same two stamps.
type lineBackend struct {
	ln    net.Listener
	conns atomic.Int64
	wg    sync.WaitGroup
}

func newLineBackend() (*lineBackend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &lineBackend{ln: ln}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

func (b *lineBackend) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.conns.Add(1)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			line, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil {
				return
			}
			recv := sinceEpoch()
			buf := make([]byte, 0, 96)
			buf = append(buf, "OK "...)
			buf = append(buf, strings.TrimSuffix(line, "\n")...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, recv, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, sinceEpoch(), 10)
			buf = append(buf, '\n')
			_, _ = conn.Write(buf)
		}()
	}
}

func (b *lineBackend) addr() string { return b.ln.Addr().String() }

func (b *lineBackend) close() error {
	err := b.ln.Close()
	b.wg.Wait()
	return err
}
