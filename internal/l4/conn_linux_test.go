//go:build linux

package l4

import (
	"net"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

// fullAcceptQueue returns the address of a listener whose accept queue is
// full: listen(2) with backlog 0 queues one connection, the one made here,
// and nothing ever accepts it, so Linux drops every later SYN and a dial
// hangs until its deadline.
func fullAcceptQueue(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("a dial to the full accept queue connected; want its SYN dropped")
	}
	return addr
}

// TestDialBoundFullAcceptQueue: a backend that drops SYNs costs an admitted
// connection one bounded dial — failing no sooner than one dial slice and no
// later than two — after which the connection is back in the pending queue,
// still open, rather than hung on the dial or dropped.
func TestDialBoundFullAcceptQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	backend := fullAcceptQueue(t)
	// C has no entitlement, so the window loop never re-admits the parked
	// connection and only the dial under test runs.
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 10)
	cust := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(sp, cust, 0, 0.001)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp, Window: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRedirector(Config{
		Engine:         eng,
		Services:       []ServiceSpec{{Principal: cust, Addr: "127.0.0.1:0"}},
		Backends:       map[agreement.Principal][]string{sp: {backend}},
		PendingTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	client, conn := tcpPair(t)
	f := &flow{conn: conn, client: clientKey(conn), svc: cust, accepted: time.Now(), backend: backend}
	start := time.Now()
	r.spliceOrRepark(f)
	took := time.Since(start)
	const slack = 250 * time.Millisecond
	if took < dialSlice || took > 2*dialSlice+slack {
		t.Fatalf("dial to a SYN-dropping backend returned after %v, want within [%v, %v]", took, dialSlice, 2*dialSlice+slack)
	}
	if failures, reparked := r.DialStats(); failures != 1 || reparked != 1 {
		t.Fatalf("dialFailures=%d reparked=%d, want 1 and 1", failures, reparked)
	}
	if n := r.pendCount[cust].Load(); n != 1 {
		t.Fatalf("%d connections parked, want 1", n)
	}
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := client.Read(make([]byte, 1)); !isTimeout(err) {
		t.Fatalf("client read on the re-parked connection: %v, want a timeout (still open)", err)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
