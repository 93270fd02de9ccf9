package main

import (
	"fmt"
	"math/rand"
)

// opKind is the shape of one benchmark op.
type opKind uint8

const (
	opWhole   opKind = iota // GET /v1/fetch/{id}
	opRange                 // GET with one Range part
	opMulti                 // GET with several Range parts (multipart/byteranges)
	opSegWalk               // consecutive GET /v1/fetch/{id}/segments/{n}
	opUpload                // cdnclient.Upload of a new dataset
	numOpKinds
)

var opKindNames = [numOpKinds]string{"whole", "range", "multi", "segwalk", "upload"}

// span is a byte range [off, off+n); for opSegWalk, off is the first
// segment and n the segment count.
type span struct{ off, n int64 }

// op is one unit of client work. An op is a holder op when its target
// edge holds the dataset, and a peer-hop op otherwise.
type op struct {
	kind    opKind
	ds      int32 // dataset index (reads)
	node    int8  // target edge index
	holder  bool
	resolve bool // POST /v1/resolve before the fetch
	parts   []span
}

// workload fixes one traffic mix. Plans are built in rounds: every
// round holds exactly the same count of each op shape, in a seeded
// order with seeded parameters, so a seed changes which bytes move but
// not the mix, and every round does about the same work.
type workload struct {
	name string
	// datasets/datasetBytes size the seeded corpus; uploads > 0 means
	// the corpus instead enters through that many setup uploads of
	// uploadBytes each.
	datasets     int
	datasetBytes int64
	segmentSize  int64
	uploads      int
	uploadBytes  int64
	// round is the op count of one plan round.
	round int
	// rounds is the plan length; cyclic plans repeat, others end the
	// timed phase when exhausted (each upload op publishes a new ID, so
	// the ingest plan is a fixed list that keeps the volumes in quota).
	rounds int
	cyclic bool
	plan   func(w *workload, rng *rand.Rand, holders []int) []op
	// probeEvery is the op interval between layer probes in the traced
	// run, chosen so probes take a small share of the clients' time.
	probeEvery int64
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

var workloads = map[string]*workload{
	// Per-request fixed cost dominates: auth, catalog, FD pool, HTTP
	// framing, sendfile. The peer-hop quarter is the slow tail.
	"small_read": {
		name: "small_read", datasets: 2048, datasetBytes: 64 * kib,
		round: 40, rounds: 500, cyclic: true,
		plan: planSmallRead, probeEvery: 64,
	},
	// Moving bytes dominates; per-request cost is diluted.
	"large_stream": {
		name: "large_stream", datasets: 2, datasetBytes: 256 * mib, segmentSize: 4 * mib,
		round: 32, rounds: 64, cyclic: true,
		plan: planLargeStream, probeEvery: 4,
	},
	// Writes beside reads on the same volumes and catalog.
	"ingest_mixed": {
		name: "ingest_mixed", uploads: 48, uploadBytes: 1 * mib,
		round: 4, rounds: 512,
		plan: planIngestMixed, probeEvery: 8,
	},
}

// otherNode picks a seeded edge that is not holder among n edges.
func otherNode(rng *rand.Rand, holder, n int) int {
	return (holder + 1 + rng.Intn(n-1)) % n
}

// planSmallRead: per 40-op round, 20 whole GETs, 12 single ranges and 8
// multipart ranges; 10 of them (5, 3, 2) go to a non-holder, and 8
// ops resolve first.
func planSmallRead(w *workload, rng *rand.Rand, holders []int) []op {
	kinds := []struct {
		k         opKind
		n, nonHld int
	}{{opWhole, 20, 5}, {opRange, 12, 3}, {opMulti, 8, 2}}
	var out []op
	for r := 0; r < w.rounds; r++ {
		round := make([]op, 0, w.round)
		for _, k := range kinds {
			for i := 0; i < k.n; i++ {
				ds := rng.Intn(w.datasets)
				o := op{kind: k.k, ds: int32(ds), node: int8(holders[ds]), holder: i >= k.nonHld}
				if !o.holder {
					o.node = int8(otherNode(rng, holders[ds], edges))
				}
				size := w.datasetBytes
				switch k.k {
				case opRange:
					n := 1*kib + rng.Int63n(31*kib)
					o.parts = []span{{rng.Int63n(size - n + 1), n}}
				case opMulti:
					// 2-4 parts, one per equal zone, each at least one
					// byte from its zone's edges so no two coalesce.
					parts := 2 + rng.Intn(3)
					zone := size / int64(parts)
					for z := 0; z < parts; z++ {
						n := 512 + rng.Int63n(zone/2-512)
						off := int64(z)*zone + 1 + rng.Int63n(zone-n-1)
						o.parts = append(o.parts, span{off, n})
					}
				}
				round = append(round, o)
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for i := 0; i < w.round/5; i++ {
			round[i].resolve = true
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	return out
}

// planLargeStream: per 32-op round, 4 whole GETs, 16 ranges of 4-32 MiB
// at offsets never aligned to a segment, and 12 segment walks of 2, 4
// or 6 segments; one op in 8 (1, 2, 1) goes to a non-holder.
func planLargeStream(w *workload, rng *rand.Rand, holders []int) []op {
	size := w.datasetBytes
	segs := size / w.segmentSize
	var out []op
	for r := 0; r < w.rounds; r++ {
		round := make([]op, 0, w.round)
		add := func(k opKind, i, nonHld int, parts []span) {
			ds := rng.Intn(w.datasets)
			o := op{kind: k, ds: int32(ds), node: int8(holders[ds]), holder: i >= nonHld, parts: parts}
			if !o.holder {
				o.node = int8(otherNode(rng, holders[ds], edges))
			}
			round = append(round, o)
		}
		for i := 0; i < 4; i++ {
			add(opWhole, i, 1, nil)
		}
		for i := 0; i < 16; i++ {
			n := 4*mib + int64(i)*28*mib/15
			off := rng.Int63n(size - n + 1)
			if off%w.segmentSize == 0 {
				if off > 0 {
					off--
				} else {
					off++
				}
			}
			add(opRange, i, 2, []span{{off, n}})
		}
		for i := 0; i < 12; i++ {
			n := int64(2 + 2*(i%3))
			add(opSegWalk, i, 1, []span{{rng.Int63n(segs - n + 1), n}})
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	return out
}

// planIngestMixed: per 4-op round, one upload of a new dataset and three
// whole GETs of setup uploads at their origin. Upload targets rotate
// over the edges so every volume grows by the same amount.
func planIngestMixed(w *workload, rng *rand.Rand, holders []int) []op {
	var out []op
	for r := 0; r < w.rounds; r++ {
		round := []op{{kind: opUpload, node: int8(r % edges), holder: true}}
		for i := 0; i < 3; i++ {
			ds := rng.Intn(w.uploads)
			round = append(round, op{kind: opWhole, ds: int32(ds), node: int8(holders[ds]), holder: true})
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	return out
}

// buildPlan makes the seeded op list. holders[d] is the edge index that
// holds dataset d.
func buildPlan(w *workload, seed int64, holders []int) ([]op, error) {
	plan := w.plan(w, rand.New(rand.NewSource(seed)), holders)
	if len(plan) != w.round*w.rounds {
		return nil, fmt.Errorf("%s: plan has %d ops, want %d", w.name, len(plan), w.round*w.rounds)
	}
	return plan, nil
}
