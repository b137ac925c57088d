package l4

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

// tcpPair returns both ends of one loopback TCP connection: the dialed end
// and the accepted one.
func tcpPair(t testing.TB) (dialed, accepted *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); a.Close() })
	return d.(*net.TCPConn), a.(*net.TCPConn)
}

// duplex is an in-memory conn that, unlike one net.Pipe, can half-close: it
// reads from one pipe and writes to another.
type duplex struct {
	net.Conn          // read side, and the address and deadline methods
	w        net.Conn // write side
}

func (d duplex) Write(p []byte) (int, error) { return d.w.Write(p) }
func (d duplex) CloseWrite() error           { return d.w.Close() }
func (d duplex) Close() error                { d.w.Close(); return d.Conn.Close() }
func (d duplex) SetDeadline(t time.Time) error {
	d.w.SetWriteDeadline(t)
	return d.Conn.SetDeadline(t)
}

func duplexPair() (a, b duplex) {
	aOut, bIn := net.Pipe()
	bOut, aIn := net.Pipe()
	return duplex{Conn: aIn, w: aOut}, duplex{Conn: bIn, w: bOut}
}

// addrConn is a conn that only answers RemoteAddr.
type addrConn struct {
	net.Conn
	remote net.Addr
}

func (c addrConn) RemoteAddr() net.Addr { return c.remote }

// TestAffinityUnmapsIPv4: an IPv4 client seen through a dual-stack listener
// (::ffff:a.b.c.d, a 16-byte net.IP) and the same client seen over IPv4 are
// one client, pinned to one owner; another address is not.
func TestAffinityUnmapsIPv4(t *testing.T) {
	plain := addrConn{remote: &net.TCPAddr{IP: net.IPv4(10, 1, 2, 3).To4(), Port: 4000}}
	mapped := addrConn{remote: &net.TCPAddr{IP: net.ParseIP("::ffff:10.1.2.3"), Port: 4001}}
	other := addrConn{remote: &net.TCPAddr{IP: net.ParseIP("10.1.2.4"), Port: 4000}}
	if clientKey(plain) != clientKey(mapped) {
		t.Fatalf("clientKey: plain %v, mapped %v", clientKey(plain), clientKey(mapped))
	}
	a := newAffinityCache()
	now := time.Now()
	a.pin(clientKey(mapped), 7, now)
	if got := a.lookup(clientKey(plain), now); got != 7 {
		t.Fatalf("plain IPv4 client: owner %d, want 7 (pinned through its mapped form)", got)
	}
	if got := a.lookup(clientKey(other), now); got != -1 {
		t.Fatalf("other client: owner %d, want none", got)
	}
}

// TestClientKeyAffinityAllocs pins the accept path's affinity work on a real
// TCP conn — key, lookup, pin — at zero allocations.
func TestClientKeyAffinityAllocs(t *testing.T) {
	_, conn := tcpPair(t)
	a := newAffinityCache()
	now := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		k := clientKey(conn)
		a.pin(k, a.lookup(k, now)+1, now)
	})
	if allocs != 0 {
		t.Fatalf("clientKey+lookup+pin: %v allocs, want 0", allocs)
	}
}

// TestCopyHalfAllocs pins a warm TCP→TCP splice half at zero allocations:
// the kernel moves the bytes and nothing is boxed on the way.
func TestCopyHalfAllocs(t *testing.T) {
	const runs = 20
	type half struct{ dst, src net.Conn }
	halves := make([]half, runs+1) // AllocsPerRun runs once more to warm up
	payload := bytes.Repeat([]byte("x"), 4096)
	for i := range halves {
		peer, src := tcpPair(t)
		dst, _ := tcpPair(t)
		if _, err := peer.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := peer.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		halves[i] = half{dst: dst, src: src}
	}
	var errs atomic.Int64
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h := halves[next]
		next++
		copyHalf(h.dst, h.src, &errs)
	})
	if allocs != 0 {
		t.Fatalf("TCP→TCP copyHalf: %v allocs, want 0", allocs)
	}
	if errs.Load() != 0 {
		t.Fatalf("%d copy errors", errs.Load())
	}
}

// spliceOrReparkAllocBudget bounds one connection's dial + splice + close
// over loopback, counting its flow and the test backend's accept: 28 on
// linux/amd64, Go 1.24. A per-dial timer context (net.DialTimeout) would
// add 5, io.CopyBuffer's WriteTo detour 2, a join channel 1.
const spliceOrReparkAllocBudget = 29

// TestSpliceOrReparkAllocs pins one connection's dial + splice + close
// against a backend that accepts and closes at once.
func TestSpliceOrReparkAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	const runs = 50
	conns := make([]net.Conn, runs+1)
	for i := range conns {
		client, conn := tcpPair(t)
		if err := client.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	r := &Redirector{}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		f := &flow{conn: conns[next], backend: ln.Addr().String()}
		next++
		r.spliceOrRepark(f)
	})
	if in, out := r.CopyErrorStats(); in+out != 0 {
		t.Fatalf("copy errors %d/%d", in, out)
	}
	if allocs > spliceOrReparkAllocBudget {
		t.Fatalf("spliceOrRepark: %v allocs, budget %d", allocs, spliceOrReparkAllocBudget)
	}
	t.Logf("spliceOrRepark: %v allocs (budget %d)", allocs, spliceOrReparkAllocBudget)
}

// spliceOutcome is what both ends of a spliced connection observed.
type spliceOutcome struct {
	up, down        []byte // what the backend and the client received
	backendSawEOF   bool   // the client's half-close reached the backend
	clientSawEOF    bool
	copyIn, copyOut int
}

// runSplice splices a client and a backend conn, each given as the
// switch's end and the far end, while the far ends exchange up and down
// concurrently: the client writes up and half-closes, the backend writes
// down while reading up to EOF, then closes.
func runSplice(t *testing.T, clientFar, clientSw, backendSw, backendFar net.Conn, up, down []byte) spliceOutcome {
	t.Helper()
	r := &Redirector{}
	deadline := time.Now().Add(10 * time.Second)
	clientFar.SetDeadline(deadline)
	backendFar.SetDeadline(deadline)
	done := make(chan struct{})
	go func() {
		r.splice(&flow{conn: clientSw}, backendSw)
		close(done)
	}()

	var out spliceOutcome
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // client: send up, half-close
		defer wg.Done()
		if _, err := clientFar.Write(up); err != nil {
			t.Errorf("client write: %v", err)
		}
		if err := clientFar.(interface{ CloseWrite() error }).CloseWrite(); err != nil {
			t.Errorf("client half-close: %v", err)
		}
	}()
	go func() { // client: receive down
		defer wg.Done()
		var err error
		out.down, err = io.ReadAll(clientFar)
		out.clientSawEOF = err == nil
	}()
	go func() { // backend: receive up while sending down, then close
		defer wg.Done()
		got := make(chan error, 1)
		go func() {
			var err error
			out.up, err = io.ReadAll(backendFar)
			got <- err
		}()
		if _, err := backendFar.Write(down); err != nil {
			t.Errorf("backend write: %v", err)
		}
		out.backendSawEOF = <-got == nil
		backendFar.Close()
	}()
	wg.Wait()
	<-done
	clientFar.Close()
	in, o := r.CopyErrorStats()
	out.copyIn, out.copyOut = in, o
	return out
}

// TestSpliceDirectMatchesBuffered is the differential of the two copy
// paths: TCP conns take the kernel splice through ReadFrom, in-memory conns
// the pooled buffer. The same payloads (over 1 MiB each way, concurrently)
// must arrive intact on both, the client's half-close must reach the
// backend on both, and neither may count a copy error.
func TestSpliceDirectMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	up := make([]byte, 1<<20+4099)
	down := make([]byte, 1<<20+12345)
	rng.Read(up)
	rng.Read(down)

	cFar, cSw := tcpPair(t)
	bSw, bFar := tcpPair(t)
	direct := runSplice(t, cFar, cSw, bSw, bFar, up, down)

	pcFar, pcSw := duplexPair()
	pbSw, pbFar := duplexPair()
	buffered := runSplice(t, pcFar, pcSw, pbSw, pbFar, up, down)

	for _, c := range []struct {
		name string
		o    spliceOutcome
	}{{"direct (TCP)", direct}, {"buffered (pipe)", buffered}} {
		if !bytes.Equal(c.o.up, up) || !bytes.Equal(c.o.down, down) {
			t.Errorf("%s: up %d/%d bytes intact=%v, down %d/%d intact=%v", c.name,
				len(c.o.up), len(up), bytes.Equal(c.o.up, up),
				len(c.o.down), len(down), bytes.Equal(c.o.down, down))
		}
		if !c.o.backendSawEOF || !c.o.clientSawEOF {
			t.Errorf("%s: backend saw half-close %v, client saw close %v", c.name, c.o.backendSawEOF, c.o.clientSawEOF)
		}
		if c.o.copyIn != 0 || c.o.copyOut != 0 {
			t.Errorf("%s: copy errors %d/%d", c.name, c.o.copyIn, c.o.copyOut)
		}
	}
}

// TestDialDeadlineBound: whenever a dial starts, its context ends between
// one and two slices later, and dials of one slice share one context.
func TestDialDeadlineBound(t *testing.T) {
	var d dialDeadline
	t0 := time.Now()
	made := map[any]bool{}
	const step = 37 * time.Millisecond
	const steps = 200
	for i := 0; i < steps; i++ {
		now := t0.Add(time.Duration(i) * step)
		ctx := d.get(now)
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatal("dial context has no deadline")
		}
		if left := dl.Sub(now); left < dialSlice || left > 2*dialSlice {
			t.Fatalf("dial at +%v: %v left, want [%v, %v]", now.Sub(t0), left, dialSlice, 2*dialSlice)
		}
		made[ctx] = true
	}
	if span := time.Duration(steps) * step; len(made) > int(span/dialSlice)+1 {
		t.Fatalf("%d contexts over %v, want one per %v slice", len(made), span, dialSlice)
	}
	d.cancel()
}

// TestFailingDialExpires: a connection whose backend refuses every dial is
// re-parked each time, but keeps its accept time, so it is closed within
// PendingTimeout plus one window (plus scheduling slack), its MaxPending
// slot is returned, and the admissions it spent stay bounded by the windows
// it lived through.
func TestFailingDialExpires(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here now: every dial is refused

	const window, pending = 20 * time.Millisecond, 200 * time.Millisecond
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 200)
	cust := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(sp, cust, 0.9, 1)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp, Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRedirector(Config{
		Engine:         eng,
		Services:       []ServiceSpec{{Principal: cust, Addr: "127.0.0.1:0"}},
		Backends:       map[agreement.Principal][]string{sp: {deadAddr}},
		PendingTimeout: pending,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	c, err := net.Dial("tcp", r.Addr(cust))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(start.Add(3 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("client read: %v, want EOF (the switch closing an expired connection)", err)
	}
	const slack = 100 * time.Millisecond
	if took := time.Since(start); took > pending+window+slack {
		t.Fatalf("expired after %v, want within %v", took, pending+window+slack)
	}
	if _, _, _, expired := r.Stats(); expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
	if n := r.pendCount[cust].Load(); n != 0 {
		t.Fatalf("%d MaxPending slots still held", n)
	}
	admits, _ := r.Admission().Counts()
	failures, reparked := r.DialStats()
	if limit := uint64(pending/window) + 2; admits > limit || failures == 0 || reparked == 0 {
		t.Fatalf("admitted=%d (limit %d) dialFailures=%d reparked=%d", admits, limit, failures, reparked)
	}
}

// BenchmarkConnection is one Layer-4 request end to end over loopback: the
// client connects, sends a line and half-closes; the switch accepts, admits,
// dials and splices; the backend answers and closes. Allocations count the
// whole process — client, switch and backend. Credit follows the demand the
// switch has seen, so a closed loop outruns it now and then and the request
// that does waits parked for the next window: parks/op says how often, and
// ns/op includes those waits.
func BenchmarkConnection(b *testing.B) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 1e6)
	cust := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(sp, cust, 0.9, 1)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp, Window: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer backend.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			for err == nil {
				_, err = c.Read(buf)
			}
			c.Write([]byte("OK\n"))
			c.Close()
		}
	}()
	r, err := NewRedirector(Config{
		Engine:   eng,
		Services: []ServiceSpec{{Principal: cust, Addr: "127.0.0.1:0"}},
		Backends: map[agreement.Principal][]string{sp: {backend.Addr().String()}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	raddr, err := net.ResolveTCPAddr("tcp", r.Addr(cust))
	if err != nil {
		b.Fatal(err)
	}
	req, reply := []byte("GET /\n"), make([]byte, 64)
	do := func() error {
		c, err := net.DialTCP("tcp", nil, raddr)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(req); err != nil {
			return err
		}
		if err := c.CloseWrite(); err != nil {
			return err
		}
		n, err := io.ReadFull(c, reply[:3])
		if err != nil || string(reply[:n]) != "OK\n" {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	// The switch starts on window 0's blind claim, and from its first
	// boundary its credit follows the demand it has seen: warm it up.
	for i := 0; i < 2000; i++ {
		if err := do(); err != nil {
			b.Fatal(err)
		}
	}
	_, parked0, _, _ := r.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := do(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, parked, _, _ := r.Stats()
	b.ReportMetric(float64(parked-parked0)/float64(b.N), "parks/op")
}
