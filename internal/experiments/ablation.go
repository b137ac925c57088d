package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/combining"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// AblationQueuing reproduces the §4.1 anomaly: the paper's first Layer-7
// implementation queued requests explicitly and released them at window
// boundaries, which bunches the requests of closed-loop clients and
// depresses server throughput; the credit-based implicit scheme forwards
// within-quota requests immediately and stays linear until the server
// saturates at 320 req/s.
//
// The experiment drives one 320 req/s server with T closed-loop client
// threads (think time 100 ms) under both admission mechanisms and reports
// steady-state throughput per thread count.
func AblationQueuing() (*Result, error) {
	threadCounts := []int{8, 16, 32, 48, 64}
	res := &Result{
		ID:     "abl-queue",
		Title:  "Explicit window queuing vs implicit (credit) forwarding",
		Values: map[string]float64{},
		Notes: []string{
			"closed-loop clients, think time 100 ms, one 320 req/s server, 100 ms windows",
			"explicit queuing bunches requests and lowers the throughput slope; the",
			"implicit credit scheme is the paper's fix (\"server processing rates",
			"linearly increase with client activity until the server saturates at 320\")",
		},
	}
	for _, tc := range threadCounts {
		imp := runQueueMode(false, tc)
		exp := runQueueMode(true, tc)
		res.Values[fmt.Sprintf("implicit@T=%d", tc)] = imp
		res.Values[fmt.Sprintf("explicit@T=%d", tc)] = exp
	}
	res.Expected = []Expectation{
		// Implicit: linear at ≈ T/(think+service) until saturation at 320.
		{Phase: "T=16", Series: "implicit", Paper: 155, RelTol: 0.10},
		{Phase: "T=32", Series: "implicit", Paper: 310, RelTol: 0.10},
		{Phase: "T=64", Series: "implicit", Paper: 320, RelTol: 0.05},
		// Explicit: roughly one request per thread per two windows.
		{Phase: "T=32", Series: "explicit", Paper: 160, RelTol: 0.30},
	}
	return res, nil
}

// runQueueMode measures steady-state throughput (req/s) of T closed-loop
// threads against one server under the chosen admission mechanism.
func runQueueMode(explicit bool, threads int) float64 {
	const (
		capacity = 320.0
		think    = 100 * time.Millisecond
		windowD  = 100 * time.Millisecond
		warmup   = 10 * time.Second
		measure  = 10 * time.Second
	)
	clock := vclock.New()
	completedInWindow := 0
	var srv *cluster.Server
	var submit func()

	srv = cluster.NewServer("s", clock, capacity, 1<<30, func(req cluster.Request, at time.Duration) {
		if at >= warmup {
			completedInWindow++
		}
		clock.Schedule(think, submit)
	})

	eq := newExplicitQueue(1)
	if explicit {
		clock.ScheduleEvery(windowD, func() {
			// No contention: the whole window quota is the server capacity.
			eq.release([]float64{capacity * windowD.Seconds()})
		})
	}
	submit = func() {
		if explicit {
			eq.enqueue(0, func() { srv.Offer(cluster.Request{}) })
		} else {
			srv.Offer(cluster.Request{})
		}
	}
	for i := 0; i < threads; i++ {
		clock.Schedule(time.Duration(i)*time.Millisecond, submit)
	}
	clock.RunUntil(warmup + measure)
	return float64(completedInWindow) / measure.Seconds()
}

// explicitQueue is the paper's first admission mechanism (§4.1): deferred
// work held per principal and released in a batch at the start of the next
// window. The credit scheme that replaced it is the enforcement path itself
// (internal/core computes the credits, internal/admission spends them); this
// queue survives only for the ablation above.
type explicitQueue struct {
	queues [][]func()
}

func newExplicitQueue(n int) *explicitQueue {
	return &explicitQueue{queues: make([][]func(), n)}
}

// enqueue defers fn under principal p; out-of-range principals are ignored.
func (q *explicitQueue) enqueue(p int, fn func()) {
	if p < 0 || p >= len(q.queues) {
		return
	}
	q.queues[p] = append(q.queues[p], fn)
}

// release pops and runs up to quota[p] deferred items per principal in FIFO
// order, returning how many ran per principal. Fractional quotas truncate; a
// principal past the end of quota releases nothing.
func (q *explicitQueue) release(quota []float64) []int {
	ran := make([]int, len(q.queues))
	for p := range q.queues {
		allow := 0
		if p < len(quota) {
			allow = int(quota[p])
		}
		allow = min(allow, len(q.queues[p]))
		for i := 0; i < allow; i++ {
			q.queues[p][i]()
			q.queues[p][i] = nil
		}
		q.queues[p] = append(q.queues[p][:0], q.queues[p][allow:]...)
		ran[p] = allow
	}
	return ran
}

// AblationTree verifies the paper's coordination-cost claim: a combining
// tree needs 2(n−1) messages per epoch versus n(n−1) for pairwise exchange.
func AblationTree() (*Result, error) {
	res := &Result{
		ID:     "abl-tree",
		Title:  "Combining tree vs pairwise exchange message cost",
		Values: map[string]float64{},
		Notes:  []string{"one aggregation epoch; the paper's 2(n−1) vs O(n²) claim"},
	}
	for _, n := range []int{4, 16, 64} {
		res.Values[fmt.Sprintf("tree@n=%d", n)] = float64(treeMessages(n))
		res.Values[fmt.Sprintf("pairwise@n=%d", n)] = float64(pairwiseMessages(n))
		res.Expected = append(res.Expected,
			Expectation{Phase: fmt.Sprintf("n=%d", n), Series: "tree", Paper: float64(2 * (n - 1)), AbsTol: 0.01},
			Expectation{Phase: fmt.Sprintf("n=%d", n), Series: "pairwise", Paper: float64(n * (n - 1)), AbsTol: 0.01},
		)
	}
	return res, nil
}

func treeMessages(n int) int {
	clock := vclock.New()
	net := simnet.New(clock, 0)
	ids := make([]combining.NodeID, n)
	for i := range ids {
		ids[i] = combining.NodeID(i)
	}
	topo := combining.BuildTree(ids, 2)
	nodes := make(map[combining.NodeID]*combining.Node, n)
	for _, id := range ids {
		id := id
		nodes[id] = combining.NewBuilder(id).Place(topo).Principals(1).
			Transport(func(to combining.NodeID, msg combining.Message) {
				net.Send(simnet.NodeID(id), simnet.NodeID(to), combining.Detach(msg))
			}).Clock(clock.Now).Build()
		net.Handle(simnet.NodeID(id), func(from simnet.NodeID, msg interface{}) {
			nodes[id].OnMessage(combining.NodeID(from), msg)
		})
	}
	// Drive one full epoch leaves-first so every report reaches the root
	// and the broadcast reaches every leaf.
	order := make([][]combining.NodeID, topo.Depth()+1)
	for _, id := range ids {
		d := 0
		for at := id; topo.Parent[at] >= 0; at = topo.Parent[at] {
			d++
		}
		order[d] = append(order[d], id)
	}
	for d := len(order) - 1; d >= 0; d-- {
		for _, id := range order[d] {
			nodes[id].Tick()
		}
		clock.RunFor(0)
	}
	clock.RunFor(time.Millisecond)
	return net.Sent
}

func pairwiseMessages(n int) int {
	clock := vclock.New()
	net := simnet.New(clock, 0)
	peers := make([]combining.NodeID, n)
	for i := range peers {
		peers[i] = combining.NodeID(i)
	}
	for i := 0; i < n; i++ {
		i := i
		ex := combining.NewPairwiseExchanger(combining.NodeID(i), peers, 1,
			func(to combining.NodeID, msg combining.Message) {
				net.Send(simnet.NodeID(i), simnet.NodeID(to), combining.Detach(msg))
			})
		ex.Tick()
	}
	clock.RunFor(time.Millisecond)
	return net.Sent
}
