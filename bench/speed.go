package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The host the baseline was recorded on is a shared VM whose speed moves
// by tens of percent on every time scale from a tenth of a second to tens
// of minutes (README.md, "Host speed"). The bench therefore takes a short
// reference reading, with the clients idle and the daemons paused, before
// every round of a phase, and reports the end-to-end times at the nominal
// host speed: divided by the run's median slowdown. The wall-clock values
// stay in the result record under wall.*, and -compare judges them too.

// speedRef is one reference reading: two fixed tasks that share no code
// with the repository, each the median of three repetitions.
type speedRef struct {
	ShaMS float64 `json:"sha_ms"` // eight SHA-256 passes over 1 MiB: core speed
	MemMS float64 `json:"mem_ms"` // 64Ki dependent loads over a 32 MiB random cycle: memory latency
}

// The readings of an idle host of the kind the baseline was recorded on.
// They only scale the normalized metrics.
const (
	nominalShaMS = 6.0
	nominalMemMS = 9.0
)

// slowdown is how much slower than nominal the host ran. The workloads slow
// by about the square of either task's slowdown, so the product of the two
// tracks them better than either alone.
func (r speedRef) slowdown() float64 {
	return r.ShaMS * r.MemMS / (nominalShaMS * nominalMemMS)
}

var chase struct {
	once sync.Once
	next []uint32
}

// readSpeed takes one reference reading (about 50 ms on an idle host) with
// the given daemons stopped, so that nothing they do while idle slows the
// reading and is then divided out of the metrics they are measured by.
func readSpeed(paused []*proc) (speedRef, error) {
	if err := pause(paused); err != nil {
		return speedRef{}, err
	}
	defer resume(paused)
	return measureSpeed(), nil
}

// measureSpeed takes one reference reading on whatever else is running.
func measureSpeed() speedRef {
	chase.once.Do(func() {
		// Sattolo's shuffle: next is one cycle through all 8Mi entries, so
		// every load depends on the one before and misses the cache.
		const n = 8 << 20
		chase.next = make([]uint32, n)
		for i := range chase.next {
			chase.next[i] = uint32(i)
		}
		rng := rand.New(rand.NewSource(1))
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i)
			chase.next[i], chase.next[j] = chase.next[j], chase.next[i]
		}
	})
	// One repetition is short enough for a timer tick or a page fault to
	// move it by tens of percent; the median of three is not.
	const reps = 3
	var sha, mem [reps]float64
	buf := make([]byte, 1<<20)
	p := uint32(0)
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		for i := 0; i < 8; i++ {
			sha256.Sum256(buf)
		}
		sha[k] = ms(time.Since(t0))
		t0 = time.Now()
		for i := 0; i < 64<<10; i++ {
			p = chase.next[p]
		}
		mem[k] = ms(time.Since(t0))
	}
	chaseSink = p
	sort.Float64s(sha[:])
	sort.Float64s(mem[:])
	return speedRef{ShaMS: sha[reps/2], MemMS: mem[reps/2]}
}

// chaseSink keeps the compiler from dropping the chase.
var chaseSink uint32
