package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome classifies one request. A refusal (503, or a parked Layer-4
// connection that expired) is the enforcement plane doing its job and is
// counted on its own; only transport errors, wrong statuses, wrong bodies
// and timeouts are failures.
type outcome int

const (
	outOK outcome = iota
	outRefused
	outFailed
)

// exchange is what one request observed. Times are nanoseconds since
// benchEpoch; recv and reply are the backend's stamps (zero when refused).
type exchange struct {
	out         outcome
	sent, done  int64
	recv, reply int64
	newConn     bool
	failure     string
	principal   int
}

// doer sends one request for a principal on a worker's own connection.
type doer interface {
	do(worker, principal int) exchange
	close()
}

const requestTimeout = 5 * time.Second

// httpConn is a minimal HTTP/1.1 keep-alive client over one TCP connection.
// The generator shares two cores with the system under test, so it avoids
// net/http's per-connection goroutines and header maps: one write, one
// buffered parse.
type httpConn struct {
	addr  string
	paths []string // request bytes per principal
	conn  net.Conn
	br    *bufio.Reader
}

func (c *httpConn) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 4096)
	return nil
}

func (c *httpConn) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

var errBadReply = errors.New("malformed reply")

// get performs one exchange and verifies status and body length.
func (c *httpConn) get(principal int) (ex exchange) {
	ex.principal = principal
	fail := func(why string, err error) exchange {
		c.drop()
		ex.out, ex.done = outFailed, sinceEpoch()
		ex.failure = fmt.Sprintf("%s: %v", why, err)
		return ex
	}
	if c.conn == nil {
		if err := c.dial(); err != nil {
			ex.sent = sinceEpoch()
			return fail("dial", err)
		}
		ex.newConn = true
	}
	_ = c.conn.SetDeadline(time.Now().Add(requestTimeout))
	ex.sent = sinceEpoch()
	if _, err := io.WriteString(c.conn, c.paths[principal]); err != nil {
		return fail("write", err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return fail("status line", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return fail("status line", errBadReply)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return fail("status line", err)
	}
	length, closeAfter := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return fail("header", err)
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(": "))
		if !ok {
			continue
		}
		switch string(k) { // no allocation: the compiler compares in place
		case "Content-Length":
			length, _ = strconv.Atoi(string(v))
		case hdrRecv:
			ex.recv, _ = strconv.ParseInt(string(v), 10, 64)
		case hdrReply:
			ex.reply, _ = strconv.ParseInt(string(v), 10, 64)
		case "Connection":
			closeAfter = bytes.EqualFold(v, []byte("close"))
		}
	}
	if length < 0 {
		return fail("body", fmt.Errorf("no Content-Length (status %d)", status))
	}
	if _, err := c.br.Discard(length); err != nil {
		return fail("body", err)
	}
	ex.done = sinceEpoch()
	if closeAfter {
		c.drop()
	}
	switch {
	case status == 200 && length == bodySize && ex.recv > 0 && ex.reply >= ex.recv:
		ex.out = outOK
	case status == 200:
		ex.out, ex.failure = outFailed, fmt.Sprintf("200 with body %d bytes, stamps %d/%d", length, ex.recv, ex.reply)
	case status == 503:
		ex.out = outRefused
	default:
		ex.out, ex.failure = outFailed, fmt.Sprintf("status %d", status)
	}
	return ex
}

// l7Doer gives each worker one keep-alive connection to one redirector
// (worker i talks to redirector i mod fleet size), so every admission point
// carries load and the generator holds exactly as many connections as it has
// workers: one per core.
type l7Doer struct{ conns []*httpConn }

func newL7Doer(workers int, redirectorAddrs []string, orgs []string) *l7Doer {
	d := &l7Doer{}
	for w := 0; w < workers; w++ {
		addr := redirectorAddrs[w%len(redirectorAddrs)]
		c := &httpConn{addr: addr}
		for _, org := range orgs {
			c.paths = append(c.paths, "GET /svc/"+org+"/bench HTTP/1.1\r\nHost: "+addr+"\r\n\r\n")
		}
		d.conns = append(d.conns, c)
	}
	return d
}

func (d *l7Doer) do(worker, principal int) exchange {
	return d.conns[worker].get(principal)
}

func (d *l7Doer) close() {
	for _, c := range d.conns {
		c.drop()
	}
}

// l4Doer opens one TCP connection per request to the principal's service
// address on the worker's redirector: the connection-per-request regime.
type l4Doer struct {
	// addrs[r][p] is redirector r's listener for principal p.
	addrs [][]string
	seq   atomic.Int64
}

func (d *l4Doer) do(worker, principal int) (ex exchange) {
	ex.principal, ex.newConn = principal, true
	fail := func(why string, err error) exchange {
		ex.out, ex.done = outFailed, sinceEpoch()
		ex.failure = fmt.Sprintf("%s: %v", why, err)
		return ex
	}
	id := strconv.FormatInt(d.seq.Add(1), 10)
	ex.sent = sinceEpoch()
	conn, err := net.DialTimeout("tcp", d.addrs[worker%len(d.addrs)][principal], 2*time.Second)
	if err != nil {
		return fail("dial", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := io.WriteString(conn, id+"\n"); err != nil {
		return fail("write", err)
	}
	line, err := bufio.NewReaderSize(conn, 128).ReadString('\n')
	ex.done = sinceEpoch()
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || strings.Contains(err.Error(), "reset") {
			// Closed without a reply: the switch dropped the connection or
			// let it expire in the pending queue. That is a refusal.
			ex.out = outRefused
			return ex
		}
		return fail("read", err)
	}
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != "OK" || f[1] != id {
		return fail("reply", fmt.Errorf("%w %q", errBadReply, line))
	}
	ex.recv, _ = strconv.ParseInt(f[2], 10, 64)
	ex.reply, _ = strconv.ParseInt(f[3], 10, 64)
	if ex.recv <= 0 || ex.reply < ex.recv {
		return fail("reply", fmt.Errorf("bad stamps in %q", line))
	}
	ex.out = outOK
	return ex
}

func (d *l4Doer) close() {}

// scheduled is one open-loop request: due at an offset from the phase start.
type scheduled struct {
	at        time.Duration
	principal int
}

// tally accumulates one worker's outcomes. Async Layer-4 requests report
// from their own goroutines, hence the mutex; on the inline Layer-7 path it
// is never contended.
type tally struct {
	mu       sync.Mutex
	lat      samples // scheduled send → full body, OK requests
	lag      samples // scheduled send → actual send
	ok       []int64 // per principal
	refused  []int64
	failed   []int64
	newConns int64
	failures []string // first few failure reasons, for the report
	log      *spanLog
	spanPfx  string // "l7." or "l4."
}

func newTallies(workers, principals int, logs []*spanLog, pfx string) []*tally {
	ts := make([]*tally, workers)
	for i := range ts {
		ts[i] = &tally{
			ok: make([]int64, principals), refused: make([]int64, principals),
			failed: make([]int64, principals), spanPfx: pfx,
		}
		if logs != nil {
			ts[i].log = logs[i]
		}
	}
	return ts
}

// record folds one exchange in. due is the scheduled send time (ns since
// benchEpoch); a closed-loop request is due when it is sent.
func (t *tally) record(ex exchange, due int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ex.newConn {
		t.newConns++
	}
	t.lag.add(time.Duration(ex.sent - due))
	switch ex.out {
	case outOK:
		t.ok[ex.principal]++
		t.lat.add(time.Duration(ex.done - due))
	case outRefused:
		t.refused[ex.principal]++
	default:
		t.failed[ex.principal]++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, ex.failure)
		}
	}
	if t.log == nil || ex.out == outFailed {
		return
	}
	// The children tile the request exactly: due→sent→recv→reply→done.
	at := func(ns int64) time.Time { return benchEpoch.Add(time.Duration(ns)) }
	id := t.log.newID()
	t.log.add("loadgen.sched_lag", id, at(due), at(ex.sent))
	if ex.out == outOK {
		t.log.add(t.spanPfx+"inbound", id, at(ex.sent), at(ex.recv))
		t.log.add("backend.service", id, at(ex.recv), at(ex.reply))
		t.log.add(t.spanPfx+"outbound", id, at(ex.reply), at(ex.done))
	} else {
		t.log.add(t.spanPfx+"refuse", id, at(ex.sent), at(ex.done))
	}
	t.log.put(id, "request", 0, at(due), at(ex.done))
}

// sleepUntil blocks the calling thread until t in naps of napLen.
//
// time.Sleep would park the goroutine on the runtime's timer heap, and an
// idle runtime waits for timers in epoll with millisecond granularity: a
// request due in 300 us goes out a millisecond late, which is more than the
// whole request takes. nanosleep(2) wakes the thread within tens of
// microseconds. Napping rather than sleeping through has a second purpose:
// a virtual CPU that idles for milliseconds is descheduled by the
// hypervisor, and waking it took anywhere between 30 and 55 us from one
// two-second stretch to the next on the machine this was written on (bare
// loopback ping-pong), across the half-dozen wake-ups of one proxied request.
// A thread that wakes every few tens of microseconds keeps its CPU inside
// the hypervisor's halt-polling window, and the jitter drops to a few
// microseconds. The naps cost a few percent of a core, which is why
// cpu_us_per_op is taken over the closed-loop phase only.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		if wait > napLen {
			wait = napLen
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

const napLen = 20 * time.Microsecond

// l4OpenInflight bounds the Layer-4 open loop's connections in flight. Below
// capacity about two are parked at any moment; the bound is far above that,
// so it never paces the generator, and a fleet that stalls outright shows as
// schedule lag.
const l4OpenInflight = 64

// runOpenLoop paces the schedule in real time over `workers` goroutines and
// returns when every request has completed. Latency is measured from the
// scheduled send, so time a request waits for a free worker is charged to
// the system, and reported separately as schedule lag.
//
// With async set (Layer 4) each exchange gets its own goroutine once it is
// due, up to l4OpenInflight at a time: the one place the generator runs more
// goroutines than cores. The switch parks a fifth of the connections for up
// to a window (25 ms on average), so two blocking workers at 200 req/s each
// would be busy 5 ms in every 5 and their backlog would grow without bound;
// the phase would measure the generator. Then only one goroutine paces. A
// pacer never parks — it goes from one nanosleep into the next — so it pins
// its P, and with every P pinned nothing would run the new goroutines or poll
// the network until sysmon stepped in, milliseconds later. With one pacer the
// other P steals the exchanges as they are spawned.
func runOpenLoop(d doer, reqs []scheduled, tallies []*tally, async bool) {
	var next atomic.Int64
	var wg, inflight sync.WaitGroup
	sem := make(chan struct{}, l4OpenInflight)
	start := time.Now()
	startNs := int64(start.Sub(benchEpoch))
	pacers := len(tallies)
	if async {
		pacers = 1
	}
	for w := 0; w < pacers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				sleepUntil(start.Add(r.at))
				due := startNs + int64(r.at)
				if !async {
					tallies[w].record(d.do(w, r.principal), due)
					continue
				}
				sem <- struct{}{}
				inflight.Add(1)
				to := i % len(tallies) // spread over the redirectors
				go func() {
					defer inflight.Done()
					tallies[to].record(d.do(to, r.principal), due)
					<-sem
				}()
			}
		}(w)
	}
	wg.Wait()
	inflight.Wait()
}

// runClosedLoop has each client send its next request as soon as the
// previous one completes, for the given time; shareA of the requests are
// principal A's, the rest B's, drawn from the seed.
func runClosedLoop(d doer, dur time.Duration, tallies []*tally, seed uint64, shareA float64) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := range tallies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng{state: seed + uint64(w)*0x9e37}
			for time.Now().Before(deadline) {
				p := 1
				if float64(r.next()>>11)/(1<<53) < shareA {
					p = 0
				}
				ex := d.do(w, p)
				tallies[w].record(ex, ex.sent)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
