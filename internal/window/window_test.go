package window

import "testing"

func TestExplicitQueueFIFORelease(t *testing.T) {
	q := NewExplicitQueue(2)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		q.Enqueue(0, func() { order = append(order, i) })
	}
	q.Enqueue(1, func() { order = append(order, 100) })
	if q.Len(0) != 5 || q.Len(1) != 1 {
		t.Fatalf("lens = %d/%d", q.Len(0), q.Len(1))
	}
	lens := q.Lens()
	if lens[0] != 5 || lens[1] != 1 {
		t.Fatalf("Lens = %v", lens)
	}
	ran := q.Release([]float64{3, 0})
	if ran[0] != 3 || ran[1] != 0 {
		t.Fatalf("ran = %v", ran)
	}
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if q.Len(0) != 2 {
		t.Fatalf("remaining = %d", q.Len(0))
	}
	ran = q.Release([]float64{10, 10})
	if ran[0] != 2 || ran[1] != 1 {
		t.Fatalf("second release = %v", ran)
	}
	if order[len(order)-1] != 100 {
		t.Fatalf("order = %v", order)
	}
}

func TestExplicitQueueFractionalQuotaTruncates(t *testing.T) {
	q := NewExplicitQueue(1)
	n := 0
	for i := 0; i < 3; i++ {
		q.Enqueue(0, func() { n++ })
	}
	q.Release([]float64{1.9})
	if n != 1 {
		t.Fatalf("ran %d, want 1", n)
	}
}

func TestExplicitQueueBounds(t *testing.T) {
	q := NewExplicitQueue(1)
	q.Enqueue(-1, func() { t.Fatal("ran") })
	q.Enqueue(5, func() { t.Fatal("ran") })
	if q.Len(-1) != 0 || q.Len(5) != 0 {
		t.Fatal("out-of-range Len not 0")
	}
	// Short quota slice treated as zero for missing principals.
	q.Enqueue(0, func() {})
	ran := q.Release(nil)
	if ran[0] != 0 {
		t.Fatalf("ran = %v", ran)
	}
}
