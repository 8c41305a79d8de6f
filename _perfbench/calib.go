package main

import (
	"math"
	"sync"
	"time"
)

// The benchmark's host is shared, and other tenants' load changes how
// fast the same work runs by 10–30% from one minute to the next, on one
// core as on both (EVIDENCE.md). Medians within a run cannot remove a
// slowdown that lasts the whole run, so every timed phase is bracketed
// by a fixed reference computation that calls none of the repository's
// code, and the reported times are divided by the host's slowdown over
// the bracket: they read as seconds on a host that runs the reference
// in its nominal time. The raw times are printed beside them.
//
// The reference has a compute part (a dependent integer chain) and a
// memory part (multiply-accumulate over random reads of a 2 MiB table),
// run on as many goroutines as the workload's workers; the slowdown is
// the geometric mean of the two parts' times over their nominal times.
// Neither part alone followed the workloads' speed closely on the host
// of EVIDENCE.md; their geometric mean did.

const (
	refALUIters = 20_000_000
	refMemIters = 4_000_000
	// Nominal times of the two parts with two goroutines: their medians
	// over 618 measurements on the 2-vCPU host of EVIDENCE.md, rounded.
	refALUNominal = 0.045
	refMemNominal = 0.030
)

var refTable = func() []uint32 {
	t := make([]uint32, 512<<10)
	x := uint32(1)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x
	}
	return t
}()

// refSink keeps the reference's results alive.
var refSink uint64

func refALU() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < refALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func refMem() uint64 {
	x, acc := uint64(1), uint64(0)
	n := uint64(len(refTable))
	for i := 0; i < refMemIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		acc += uint64(refTable[(x>>20)%n]) * (x | 1)
		if acc&1 == 0 {
			acc ^= x >> 3
		}
	}
	return acc
}

// onWorkers runs fn on n goroutines at once and returns the elapsed time
// in seconds.
func onWorkers(n int, fn func() uint64) float64 {
	out := make([]uint64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn()
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, v := range out {
		refSink += v
	}
	return d
}

// hostSlowdown runs the reference once on n goroutines and returns how
// much slower than nominal the host ran it.
func hostSlowdown(n int) float64 {
	alu := onWorkers(n, refALU)
	mem := onWorkers(n, refMem)
	return math.Sqrt(alu / refALUNominal * mem / refMemNominal)
}

// scaled divides a raw duration by the mean slowdown of the two
// reference runs that bracket it.
func scaled(d time.Duration, before, after float64) time.Duration {
	return time.Duration(float64(d) / ((before + after) / 2))
}
