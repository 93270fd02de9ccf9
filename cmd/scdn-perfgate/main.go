// Command scdn-perfgate is the delivery plane's performance ratchet: it
// compares a freshly measured open-loop BENCH record against the
// checked-in baseline and exits non-zero when the candidate regressed
// past the tolerance band — knee throughput down by more than
// -tolerance, knee p99 inflated past -p99-inflation (above an absolute
// floor that keeps loopback-jitter baselines from flaking), any failed
// requests, or a reconciliation mismatch.
//
// The gate has two axes. The request axis (-baseline/-candidate)
// ratchets BENCH_delivery.json's knee throughput and p99; the byte axis
// (-large-baseline/-large-candidate) ratchets BENCH_large.json's
// sustained MB/s through the segmented large-object path. Passing only
// one pair runs only that axis.
//
// Usage (what `make perfgate` runs):
//
//	scdn-loadgen -scenario delivery -bench-out BENCH_openloop_candidate.json
//	scdn-perfgate -baseline BENCH_delivery.json -candidate BENCH_openloop_candidate.json
//
//	scdn-loadgen -scenario large ... -bench-out BENCH_large_candidate.json
//	scdn-perfgate -candidate "" -large-baseline BENCH_large.json -large-candidate BENCH_large_candidate.json
//
// A baseline predating the open-loop schema (no open_loop section)
// cannot anchor the ratchet; the candidate then only has to be healthy,
// and checking it in starts the ratchet for the next run.
//
// When baseline and candidate were measured on different hardware
// (GOMAXPROCS or CPU count differ), the gate warns but still compares:
// the tolerance band is wide enough to absorb runner variance, and a
// visible warning beats a silently meaningless number.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"scdn/internal/loadharness"
)

func main() {
	var (
		baseline  = flag.String("baseline", "BENCH_delivery.json", "checked-in open-loop BENCH record (empty skips the request axis)")
		candidate = flag.String("candidate", "BENCH_openloop_candidate.json", "freshly measured open-loop record (empty skips the request axis)")
		largeBase = flag.String("large-baseline", "", "checked-in BENCH_large.json record (byte-throughput axis)")
		largeCand = flag.String("large-candidate", "", "freshly measured large-object record (byte-throughput axis)")
		tolerance = flag.Float64("tolerance", 0.5, "allowed fractional regression on either axis (0.5 = fail below half the baseline)")
		inflation = flag.Float64("p99-inflation", 4, "allowed knee-p99 growth factor (request axis)")
	)
	flag.Parse()
	opt := loadharness.GateOptions{Tolerance: *tolerance, MaxP99Inflation: *inflation}

	ran := false
	if *candidate != "" {
		gateDelivery(*baseline, *candidate, opt)
		ran = true
	}
	if *largeCand != "" {
		gateLarge(*largeBase, *largeCand, opt)
		ran = true
	}
	if !ran {
		fatal(fmt.Errorf("nothing to gate: pass -candidate and/or -large-candidate"))
	}
}

// gateDelivery runs the request axis: knee throughput and p99.
func gateDelivery(baseline, candidate string, opt loadharness.GateOptions) {
	var base *loadharness.DeliveryRecord
	if baseline != "" {
		var err error
		base, err = loadharness.ReadDeliveryRecord(baseline)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				fatal(err)
			}
			// First run on a fresh checkout: nothing to ratchet against yet.
			fmt.Printf("scdn-perfgate: no baseline at %s; checking candidate health only\n", baseline)
			base = nil
		}
	}
	cand, err := loadharness.ReadDeliveryRecord(candidate)
	if err != nil {
		fatal(err)
	}
	if base != nil {
		warnHostMismatch(base.Host, cand.Host)
	}
	if err := loadharness.CompareDelivery(base, cand, opt); err != nil {
		fatal(err)
	}
	if base != nil && base.OpenLoop != nil && base.OpenLoop.Knee != nil {
		b, c := base.OpenLoop.Knee, cand.OpenLoop.Knee
		fmt.Printf("scdn-perfgate: OK — knee %.1f req/s @ p99 %.2fms (baseline %.1f req/s @ p99 %.2fms, tolerance %.0f%%)\n",
			c.AchievedRPS, c.P99MS, b.AchievedRPS, b.P99MS, opt.Tolerance*100)
	} else {
		k := cand.OpenLoop.Knee
		fmt.Printf("scdn-perfgate: OK — no open-loop baseline; candidate knee %.1f req/s @ p99 %.2fms starts the ratchet\n",
			k.AchievedRPS, k.P99MS)
	}
}

// gateLarge runs the byte axis: sustained MB/s through the segmented
// large-object serve path.
func gateLarge(baseline, candidate string, opt loadharness.GateOptions) {
	var base *loadharness.LargeRecord
	if baseline != "" {
		var err error
		base, err = loadharness.ReadLargeRecord(baseline)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				fatal(err)
			}
			fmt.Printf("scdn-perfgate: no large baseline at %s; checking candidate health only\n", baseline)
			base = nil
		}
	}
	cand, err := loadharness.ReadLargeRecord(candidate)
	if err != nil {
		fatal(err)
	}
	if base != nil {
		warnHostMismatch(base.Host, cand.Host)
	}
	if err := loadharness.CompareLarge(base, cand, opt); err != nil {
		fatal(err)
	}
	if base != nil {
		fmt.Printf("scdn-perfgate: OK — sustained %.1f MB/s segmented (baseline %.1f MB/s, tolerance %.0f%%)\n",
			cand.SustainedMBps, base.SustainedMBps, opt.Tolerance*100)
	} else {
		fmt.Printf("scdn-perfgate: OK — no large baseline; candidate's %.1f MB/s sustained starts the byte-throughput ratchet\n",
			cand.SustainedMBps)
	}
}

// warnHostMismatch prints a visible warning when two records were
// measured on different hardware contexts. The comparison still runs —
// a warning the reader can weigh beats a gate that silently compares
// incomparable numbers or silently skips.
func warnHostMismatch(base, cand loadharness.Host) {
	if diff := loadharness.HostMismatch(base, cand); diff != "" {
		fmt.Printf("scdn-perfgate: WARNING: baseline and candidate hosts differ (%s) — numbers are not directly comparable\n", diff)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scdn-perfgate:", err)
	os.Exit(1)
}
