package main

import "time"

// A shared host's speed drifts: a neighbour's use of the last-level cache
// and of memory bandwidth slows this process down for seconds to minutes
// at a time, and process CPU time counts the slowdown. The simulator's own
// time drifts with it, 1.5x on identical work. So every iteration runs a
// fixed reference loop just before its set-up and just after its timed
// phase, and its times are scaled by refNominal over the loop's mean time:
// each timing metric is the iteration's process CPU time on a host where
// the loop takes refNominal. A change to the program moves the iteration
// and not the loop, so it shows in full; a slower host moves both.
//
// The loop looks up random keys in a 1 Mi-entry Go map, the kind of work
// the simulator's hot paths do: hashing, dependent loads that miss the
// private caches, and a working set of tens of MiB that competes with
// neighbours for the shared last-level cache. Of the loops tried (ALU
// only, random updates over 1, 8 or 32 MiB, memory copy, map lookups),
// this one tracked the workloads' drift best.

const (
	refKeys    = 1 << 20
	refLookups = 200_000
	// refNominal is about the loop's median CPU time on the host the
	// benchmark was tuned on, a shared 2-core Sapphire Rapids guest
	// (go1.24), so scaled times read as CPU time there. It only sets the
	// unit and must not change, or every baseline moves with it.
	refNominal = 75 * time.Millisecond
)

var (
	refMap  map[uint64]uint64
	refSink uint64
)

// refKey spreads i over the key space the way the simulator's addresses
// spread over its maps.
func refKey(i uint64) uint64 { return i * 0x9E3779B97F4A7C15 }

// refLoop runs the reference loop once and returns its process CPU time.
// The first call builds the map.
func refLoop() time.Duration {
	if refMap == nil {
		refMap = make(map[uint64]uint64, refKeys)
		for i := uint64(0); i < refKeys; i++ {
			refMap[refKey(i)] = i
		}
	}
	x := refSink | 1
	t0 := cpuTime()
	for i := 0; i < refLookups; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x += refMap[refKey(x>>44)]
	}
	d := cpuTime() - t0
	refSink = x
	return d
}
