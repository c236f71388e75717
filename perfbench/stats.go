package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: a tail read from fewer samples is noise.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs; xs
// need not be sorted and is not modified. It returns 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-quantile of n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly ranked above the p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailLadder lists the percentiles a tail may be read at.
var tailLadder = []float64{0.5, 0.6, 0.66, 0.7, 0.75, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}

// tailPercentile returns the highest percentile of ladder (ascending
// fractions) that leaves at least minBeyond of n samples above it, or
// 0.5 when none does. Each workload fixes its tail from this rule at
// its expected sample count, so the percentile stays the same across
// runs; the output records how many samples lay beyond it and what the
// rule gives for the run's own count.
func tailPercentile(n int, ladder []float64) float64 {
	best := 0.5
	for _, p := range ladder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssSampler reads the process's resident-set high-water mark (VmHWM)
// once a second and resets it, so each reading is the peak of one
// second. Linux resets VmHWM when "5" is written to clear_refs; where
// that is refused, every reading is the lifetime peak, and the record
// says so.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	reset bool
}

// startRSS releases free heap to the OS, resets the high-water mark so
// set-up garbage is excluded, and starts sampling.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), reset: resetHWM() == nil}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.peaks = append(s.peaks, float64(procStatusKB("VmHWM"))/1024)
				resetHWM()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// rssQuantile is the quantile of the one-second peaks that peak_rss_mb
// reports. The window's single highest second rests on where the
// garbage collector happened to run: on serve-stream it spread by 20%
// of its median over six seeds, the 90th percentile by 6% over ten.
// The 90th percentile still sees the spikes of work that runs in more
// than one second in ten, such as the cold computes of serve-stream.
const rssQuantile = 0.9

// finish stops sampling and returns the rssQuantile of the one-second
// peaks in MiB, counting the unfinished last second too.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.peaks = append(s.peaks, float64(procStatusKB("VmHWM"))/1024)
	return quantile(s.peaks, rssQuantile)
}

func resetHWM() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// procStatusKB reads one "kB" field of /proc/self/status (0 if absent).
func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		v, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		return v
	}
	return 0
}

// memWindow measures Go runtime allocation and GC activity over a
// window of requests.
type memWindow struct{ start runtime.MemStats }

func startMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// finish returns MiB allocated per request, total GC pause in ms, and
// the number of GC cycles since the window started.
func (w *memWindow) finish(requests int) (allocMBPerReq, pauseMS, cycles float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if requests > 0 {
		allocMBPerReq = float64(end.TotalAlloc-w.start.TotalAlloc) / (1 << 20) / float64(requests)
	}
	pauseMS = float64(end.PauseTotalNs-w.start.PauseTotalNs) / 1e6
	cycles = float64(end.NumGC - w.start.NumGC)
	return
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}
