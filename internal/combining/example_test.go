package combining_test

import (
	"fmt"
	"time"

	"repro/internal/combining"
)

// A two-node tree with an in-process transport: the leaf reports its queue
// vector, the root combines and broadcasts the global view.
func Example() {
	var root, leaf *combining.Node
	now := func() time.Duration { return 0 }
	// Deliver messages synchronously for the example. A node lends each
	// message for the duration of the send; Detach gives the value form
	// OnMessage takes.
	toRoot := func(to combining.NodeID, msg combining.Message) { root.OnMessage(1, combining.Detach(msg)) }
	toLeaf := func(to combining.NodeID, msg combining.Message) { leaf.OnMessage(0, combining.Detach(msg)) }
	root = combining.NewBuilder(0).Children(1).Principals(2).
		Transport(toLeaf).Clock(now).Build()
	leaf = combining.NewBuilder(1).Parent(0).Principals(2).
		Transport(toRoot).Clock(now).Build()

	root.SetLocal([]float64{10, 0})
	leaf.SetLocal([]float64{5, 20})
	leaf.Tick() // report up
	root.Tick() // combine + broadcast down

	g, _, _ := leaf.Global()
	fmt.Printf("global queues: %v across %d nodes\n", g.Sum, g.Count)
	// Output: global queues: [15 20] across 2 nodes
}

// A builder assembles one node of the tree declaratively: identity, wiring,
// and principal count, with the transport and clock injected. A node with
// no parent and no children is a complete single-node tree — its local
// queue vector is the global view.
func ExampleNewBuilder() {
	now := func() time.Duration { return 0 }
	solo := combining.NewBuilder(0).Principals(3).
		Transport(func(to combining.NodeID, msg combining.Message) {}).
		Clock(now).Build()

	solo.SetLocal([]float64{4, 2, 0})
	solo.Tick()

	g, _, _ := solo.Global()
	fmt.Printf("global queues: %v across %d node\n", g.Sum, g.Count)
	// Output: global queues: [4 2 0] across 1 node
}
