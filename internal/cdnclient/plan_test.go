package cdnclient

import (
	"math"
	"testing"
)

// checkPlan asserts the planner's contract: contiguous, non-empty,
// non-overlapping ranges covering [0, total) exactly, at most
// min(max(n,1), maxStripes) of them.
func checkPlan(t *testing.T, total int64, n int, plan []Range) {
	t.Helper()
	if total <= 0 {
		if plan != nil {
			t.Fatalf("plan(%d, %d) = %v, want nil", total, n, plan)
		}
		return
	}
	if len(plan) == 0 {
		t.Fatalf("plan(%d, %d) planned nothing", total, n)
	}
	limit := n
	if limit < 1 {
		limit = 1
	}
	if limit > maxStripes {
		limit = maxStripes
	}
	if len(plan) > limit {
		t.Fatalf("plan(%d, %d) planned %d stripes, limit %d", total, n, len(plan), limit)
	}
	var next, sum int64
	for i, p := range plan {
		if p.Offset != next {
			t.Fatalf("plan(%d, %d): stripe %d starts at %d, want %d (gap or overlap)", total, n, i, p.Offset, next)
		}
		if p.Length < 1 {
			t.Fatalf("plan(%d, %d): stripe %d has length %d", total, n, i, p.Length)
		}
		if p.Offset > total-p.Length {
			t.Fatalf("plan(%d, %d): stripe %d = %+v runs past total", total, n, i, p)
		}
		next = p.Offset + p.Length
		sum += p.Length
	}
	if sum != total {
		t.Fatalf("plan(%d, %d): planned %d bytes, want %d", total, n, sum, total)
	}
}

func TestPlanStripes(t *testing.T) {
	cases := []struct {
		total int64
		n     int
	}{
		{0, 4}, {-5, 4}, {1, 1}, {1, 8}, {5, 10}, {100, 4},
		{64 << 10, 4}, {64<<10 + 1, 4}, {7, 3},
		{math.MaxInt64, 7}, {math.MaxInt64, 1}, {100, -2}, {100, 1 << 30},
		// Near-max totals whose chunk does not divide evenly: the final
		// off += chunk used to overflow int64 and loop forever.
		{math.MaxInt64, 10}, {math.MaxInt64 - 1, 7}, {math.MaxInt64, 1024},
	}
	for _, tc := range cases {
		checkPlan(t, tc.total, tc.n, planStripesAligned(tc.total, tc.n, 1))
	}
}

// checkAlignedPlan asserts the planStripesAligned contract: everything
// checkPlan demands, plus every boundary except the dataset end falls on
// a multiple of align.
func checkAlignedPlan(t *testing.T, total int64, n int, align int64, plan []Range) {
	t.Helper()
	checkPlan(t, total, n, plan)
	if align <= 1 {
		return
	}
	for i, p := range plan {
		if p.Offset%align != 0 {
			t.Fatalf("planStripesAligned(%d, %d, %d): stripe %d starts at %d, not %d-aligned",
				total, n, align, i, p.Offset, align)
		}
		if end := p.Offset + p.Length; end%align != 0 && end != total {
			t.Fatalf("planStripesAligned(%d, %d, %d): stripe %d ends at %d, neither %d-aligned nor total",
				total, n, align, i, end, align)
		}
	}
}

func TestPlanStripesAligned(t *testing.T) {
	cases := []struct {
		total int64
		n     int
		align int64
	}{
		{0, 4, 1024}, {1, 4, 1024}, {1023, 4, 1024}, {1024, 4, 1024},
		{1025, 4, 1024}, {64 << 10, 4, 1024}, {64<<10 + 1, 4, 1024},
		{256 << 10, 4, 64 << 10}, {256<<10 + 17, 3, 64 << 10},
		{100, 4, 0}, {100, 4, 1}, {5, 10, 2}, {7, 3, 4},
		{math.MaxInt64, 7, 64 << 10}, {math.MaxInt64, 1, 1 << 40},
		{1 << 40, 1024, 4096},
	}
	for _, tc := range cases {
		checkAlignedPlan(t, tc.total, tc.n, tc.align, planStripesAligned(tc.total, tc.n, tc.align))
	}
}

// FuzzPlanStripes drives the reassembly offset math with arbitrary
// sizes and stripe counts; the overflow-prone ceiling division and the
// clamp logic must always produce an exact, in-bounds cover.
func FuzzPlanStripes(f *testing.F) {
	f.Add(int64(1), 1)
	f.Add(int64(100), 4)
	f.Add(int64(64<<10), 4)
	f.Add(int64(math.MaxInt64), 7)
	f.Add(int64(math.MaxInt64), 1)
	f.Add(int64(math.MaxInt64), 10)
	f.Add(int64(5), 10)
	f.Add(int64(-1), 3)
	f.Fuzz(func(t *testing.T, total int64, n int) {
		checkPlan(t, total, n, planStripesAligned(total, n, 1))
	})
}
