package loadharness

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"

	"scdn/internal/storage"
)

// Request flavors in the large-object mix.
const (
	mixWhole = iota
	mixRanged
	mixSegmentWalk
)

// largeMixEntry is one precomputed request: flavor, dataset, and (for
// ranged fetches) a segment-size window's offset. Precomputing the
// table keeps the open-loop hot path free of RNG state and makes the
// same seed replay the same byte pattern exactly.
type largeMixEntry struct {
	flavor int
	ds     int
	off    int64
}

// buildLargeMix deals the request mix deterministically: 20% whole
// objects, 50% ranged windows, 30% segment walks — reads dominated by
// partial access, exactly the pattern segmentation exists for.
func buildLargeMix(seed int64, n, datasets int, bytesPer, segSize int64) []largeMixEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]largeMixEntry, n)
	for i := range out {
		e := largeMixEntry{ds: rng.Intn(datasets)}
		switch p := rng.Intn(10); {
		case p < 2:
			e.flavor = mixWhole
		case p < 7:
			e.flavor = mixRanged
			// A segment-size window at an arbitrary (unaligned) offset:
			// the serve path must stitch it from up to two segments.
			if max := bytesPer - segSize; max > 0 {
				e.off = rng.Int63n(max + 1)
			}
		default:
			e.flavor = mixSegmentWalk
		}
		out[i] = e
	}
	return out
}

// largeMix sweeps the arrival ladder with the seeded whole/ranged/
// segment-walk mix over segmented datasets: BENCH_large.json's byte
// axis, the knee step's wall-clock MB/s.
func largeMix(ctx context.Context, e *env) (outcome, error) {
	segs := storage.SegmentCount(e.Bytes, e.SegmentSize)
	// The mix table is sized far past any plausible request count; the
	// counter wraps around it harmlessly if a sweep outruns it.
	mix := buildLargeMix(e.Seed, 1<<16, len(e.datasets), e.Bytes, e.SegmentSize)
	var rr atomic.Uint64
	o := &largeOutcome{}
	s, err := e.sweep(ctx, func(ctx context.Context) (int64, error) {
		i := rr.Add(1)
		m := mix[i%uint64(len(mix))]
		ds := e.datasets[m.ds]
		j := i % uint64(len(e.urls))
		url := e.urls[j] + "/v1/fetch/" + string(ds)
		o.mix[m.flavor].Add(1)
		var n int64
		var err error
		switch m.flavor {
		case mixWhole:
			n, err = get(ctx, e.client, url, e.tokens[j], "", http.StatusOK, ds, 0, e.Bytes, e.Verify)
		case mixRanged:
			w := min(e.SegmentSize, e.Bytes-m.off)
			rangeHdr := "bytes=" + strconv.FormatInt(m.off, 10) + "-" + strconv.FormatInt(m.off+w-1, 10)
			n, err = get(ctx, e.client, url, e.tokens[j], rangeHdr, http.StatusPartialContent, ds, m.off, w, e.Verify)
		default:
			for seg := int64(0); seg < segs && err == nil; seg++ {
				o.segRequests.Add(1)
				var k int64
				k, err = get(ctx, e.client, url+"/segments/"+strconv.FormatInt(seg, 10), e.tokens[j], "",
					http.StatusOK, ds, seg*e.SegmentSize, storage.SegmentExtent(e.Bytes, e.SegmentSize, seg), e.Verify)
				n += k
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: %s (flavor %d): %v\n", url, m.flavor, err)
		}
		return n, err
	})
	if err != nil {
		return nil, err
	}
	o.sweepResult = s
	fmt.Printf("mix: %d whole, %d ranged, %d segment walks (%d segment fetches)\n",
		o.mix[mixWhole].Load(), o.mix[mixRanged].Load(), o.mix[mixSegmentWalk].Load(), o.segRequests.Load())
	return o, nil
}

type largeOutcome struct {
	*sweepResult
	mix         [3]atomic.Uint64 // requests issued per flavor
	segRequests atomic.Uint64
}

// reconcile: whole and ranged requests each hit /v1/fetch exactly once
// (every edge serves locally after warmup: segments re-materialize from
// the generator on eviction, never over a peer); walks hit the segment
// endpoint once per segment. Any server-side failure, or a run that
// never took the segmented path, is an accounting bug.
func (o *largeOutcome) reconcile(d Counters) []string {
	var m mismatches
	m.check(o.failed == 0, "%d requests failed", o.failed)
	whole := o.mix[mixWhole].Load() + o.mix[mixRanged].Load()
	m.check(d["scdn_fetch_requests_total"] == whole,
		"cluster saw %d fetches, mix issued %d whole+ranged", d["scdn_fetch_requests_total"], whole)
	seg := d["scdn_segment_fetch_requests_total"] - d["scdn_peer_segment_fetch_requests_total"]
	m.check(seg == o.segRequests.Load(),
		"cluster saw %d client segment fetches, walks issued %d", seg, o.segRequests.Load())
	m.check(d["scdn_fetch_failures_total"] == 0 && d["scdn_segment_fetch_failures_total"] == 0,
		"cluster recorded %d fetch / %d segment-fetch failures",
		d["scdn_fetch_failures_total"], d["scdn_segment_fetch_failures_total"])
	m.check(d["scdn_segmented_serves_total"] > 0, "the segmented serve path never ran")
	return m
}

func (o *largeOutcome) record(e *env, d Counters, reconciled bool) any {
	return LargeRecord{
		SchemaVersion: SchemaVersion,
		Host:          CurrentHost(),
		Mode:          "open-loop",
		Seed:          e.Seed,
		Edges:         len(e.urls), Datasets: e.Datasets, BytesPerDataset: e.Bytes,
		SegmentSize: e.SegmentSize,
		StoreQuota:  e.lc.Config.StoreQuota,
		Mix: LargeMix{Whole: o.mix[mixWhole].Load(), Ranged: o.mix[mixRanged].Load(),
			SegmentWalk: o.mix[mixSegmentWalk].Load()},
		TotalBytes:        o.bytes,
		ElapsedSeconds:    o.elapsed.Seconds(),
		SustainedMBps:     o.knee.AchievedMBps,
		LatencyMS:         o.lat.LatencyMS(),
		RequestMBps:       o.mbps.Digest(),
		Failed:            o.failed,
		SegmentedServes:   d["scdn_segmented_serves_total"],
		SegmentFetches:    d["scdn_segment_fetch_requests_total"],
		SegmentPulls:      d["scdn_segment_pulls_total"],
		FadviseSequential: d["scdn_store_fadvise_sequential_total"],
		FadviseDontNeed:   d["scdn_store_fadvise_dontneed_total"],
		Materializations:  d["scdn_store_materialize_total"],
		MaterializedBytes: d["scdn_store_materialize_bytes_total"],
		Reconciled:        reconciled,
		OpenLoop:          o.openLoop,
	}
}
