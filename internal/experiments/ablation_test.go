package experiments

import "testing"

func TestExplicitQueueFIFORelease(t *testing.T) {
	q := newExplicitQueue(2)
	var order []int
	for i := 0; i < 5; i++ {
		q.enqueue(0, func() { order = append(order, i) })
	}
	q.enqueue(1, func() { order = append(order, 100) })
	if len(q.queues[0]) != 5 || len(q.queues[1]) != 1 {
		t.Fatalf("lens = %d/%d", len(q.queues[0]), len(q.queues[1]))
	}
	ran := q.release([]float64{3, 0})
	if ran[0] != 3 || ran[1] != 0 {
		t.Fatalf("ran = %v", ran)
	}
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if len(q.queues[0]) != 2 {
		t.Fatalf("remaining = %d", len(q.queues[0]))
	}
	ran = q.release([]float64{10, 10})
	if ran[0] != 2 || ran[1] != 1 {
		t.Fatalf("second release = %v", ran)
	}
	if order[len(order)-1] != 100 {
		t.Fatalf("order = %v", order)
	}
}

func TestExplicitQueueFractionalQuotaTruncates(t *testing.T) {
	q := newExplicitQueue(1)
	n := 0
	for i := 0; i < 3; i++ {
		q.enqueue(0, func() { n++ })
	}
	q.release([]float64{1.9})
	if n != 1 {
		t.Fatalf("ran %d, want 1", n)
	}
}

func TestExplicitQueueBounds(t *testing.T) {
	q := newExplicitQueue(1)
	q.enqueue(-1, func() { t.Fatal("ran") })
	q.enqueue(5, func() { t.Fatal("ran") })
	if len(q.queues[0]) != 0 {
		t.Fatal("out-of-range principal queued")
	}
	// A short quota slice releases nothing for the missing principals.
	q.enqueue(0, func() {})
	if ran := q.release(nil); ran[0] != 0 {
		t.Fatalf("ran = %v", ran)
	}
}
