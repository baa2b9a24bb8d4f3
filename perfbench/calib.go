package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is a VM on a shared machine: how fast
// its cores execute changes from second to second and from minute to
// minute with the neighbours' load, by up to 1.7x for every workload
// alike. Raw op times therefore spread more between runs of the same
// code than any regression bound could allow. The benchmark measures
// the host's speed as it goes instead: after every op (every query
// block) it runs a fixed reference load — the standard library's flate
// compressor over a fixed text on GOMAXPROCS goroutines, code the
// program under test never changes — and reports the op times rescaled
// to a host on which one pass of that load takes refPassMS. Neighbour load
// slows the ops and the reference load alike, so the rescaled time
// moves only when the program's own cost does. The raw times stay in
// every record.

// refPassMS is one pass of the reference load on one core of the
// reference host: rescaled metrics read as if measured on a host where a
// pass takes 50 ms (the 2-core Xeon VM the bounds were set on took
// 35–60 ms, varying with its neighbours).
const refPassMS = 50

// calibrationShare sizes the reference load run after each op: a
// quarter of the op's time, a fifth of the run. The host's speed jitters
// by ±10% over half a second, so the reference load's own noise shrinks
// only with the time spent on it: the op and the reference load are
// about equally noisy per second, and a run's ratio of the two is
// steadiest when neither is measured for much less time than the other.
const calibrationShare = 1.0 / 4

var calibrationText = func() []byte {
	rng := rand.New(rand.NewSource(1))
	words := []string{"INSERT", "COPY", "lineitem", "orders", "1995-03-12", "42.17", "Customer#", "nation", "AIR", "MAIL", "|"}
	var b bytes.Buffer
	for b.Len() < 256<<10 {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(" \t,\n"[rng.Intn(4)])
		b.WriteByte(byte('0' + rng.Intn(10)))
	}
	return b.Bytes()
}()

// hostClock keeps the reference load's passes and time during a run.
type hostClock struct {
	passes      int
	coreMS      float64   // wall time × goroutines, summed
	calibrateMS []float64 // wall time of each calibration, for the record
}

// calibrate runs the reference load for about calibrationShare of op:
// GOMAXPROCS goroutines each compress the text in passes until the time
// is up. A collection first clears the op's garbage, so the collector
// does not run during the load.
func (h *hostClock) calibrate(op time.Duration) {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(float64(op) * calibrationShare))
	passes := make([]int, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			w, _ := flate.NewWriter(&out, flate.DefaultCompression)
			for passes[g] == 0 || time.Now().Before(deadline) {
				out.Reset()
				w.Reset(&out)
				_, _ = w.Write(calibrationText)
				_ = w.Close()
				passes[g]++
			}
		}()
	}
	wg.Wait()
	d := ms(time.Since(t0))
	for _, p := range passes {
		h.passes += p
	}
	h.coreMS += d * float64(n)
	h.calibrateMS = append(h.calibrateMS, d)
}

// passMS is the mean time of one pass on one core during the run.
func (h *hostClock) passMS() float64 { return ratio(h.coreMS, float64(h.passes)) }

// scale converts this run's times to reference-host times.
func (h *hostClock) scale() float64 { return ratio(refPassMS, h.passMS()) }
