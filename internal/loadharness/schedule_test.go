package loadharness

import (
	"testing"
	"time"
)

func TestArrivalsRejectsBadConfig(t *testing.T) {
	if _, err := NewArrivals(0, 1); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := NewArrivals(-5, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a1, err := NewArrivals(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := NewArrivals(1000, 42)
	for i := 0; i < 100; i++ {
		if x, y := a1.Next(), a2.Next(); x != y {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, x, y)
		}
	}
}

func TestArrivalsMonotoneAndRate(t *testing.T) {
	a, err := NewArrivals(1000, 7) // mean gap 1ms
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	var prev, last time.Duration
	for i := 0; i < n; i++ {
		at := a.Next()
		if at < prev {
			t.Fatalf("offsets decreased: %v after %v", at, prev)
		}
		prev, last = at, at
	}
	// n draws at 1000/s should land near n milliseconds (mean gap
	// 1/rate); allow 10% statistical slack.
	want := time.Duration(n) * time.Millisecond
	if last < want*9/10 || last > want*11/10 {
		t.Errorf("%d draws span %v, want ~%v", n, last, want)
	}
}
