package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// host is the fingerprint printed with every report, so figures from
// different machines are never compared blind.
type host struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	// CalibrationMs is the median wall time of calibrate, a fixed
	// CPU-bound loop: metadata for normalising timings across hosts, not
	// a metric.
	CalibrationMs float64
}

func fingerprint() host {
	return host{
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CalibrationMs: calibrationMs(),
	}
}

func (h host) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s calibration_ms=%.3f",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CalibrationMs)
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibrationSink float64

// calibrate is a fixed integer and floating-point loop with no memory
// traffic: its time tracks single-core speed only.
func calibrate() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	acc := 0.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>11) * 0x1p-53
	}
	return acc
}

// calibrationMs returns the median of five timed calibrate runs.
func calibrationMs() float64 {
	ms := make([]float64, 5)
	for i := range ms {
		t0 := time.Now()
		calibrationSink += calibrate()
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms[len(ms)/2]
}

// procStatusMiB reads a memory field of /proc/self/status (VmRSS, VmHWM)
// in MiB.
func procStatusMiB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", field, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("read %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// rssSampler samples the resident set every rssEvery while the timed loop
// runs and keeps each second's highest sample. The median of those
// per-second peaks is peak_rss_mb: a single process-lifetime highwater
// mark depends on how the workers' largest allocations happen to line up
// with garbage collection, and moved by a third between identical runs.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

const (
	rssEvery     = 20 * time.Millisecond
	rssPerWindow = int(time.Second / rssEvery)
)

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		n := 0
		for {
			rss, err := procStatusMiB("VmRSS")
			if err != nil {
				s.err = err
				return
			}
			if n%rssPerWindow == 0 {
				s.peaks = append(s.peaks, rss)
			}
			s.peaks[len(s.peaks)-1] = math.Max(s.peaks[len(s.peaks)-1], rss)
			n++
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median per-second peak in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	p := append([]float64(nil), s.peaks...)
	sort.Float64s(p)
	return percentile(p, 0.5), nil
}

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// beyond counts the samples a q-quantile leaves above it: a percentile is
// only reported when at least minBeyond samples lie past it.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

const minBeyond = 10
