package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostStamp identifies the machine and run parameters a result was recorded
// with, so two outputs are never compared across hosts by accident.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	// DegradedHost marks a single-core host: 4 ranks and the compute pool
	// then serialize, so throughput and pool numbers mean nothing. Such a
	// run is refused a record (-out) and only prints.
	DegradedHost bool `json:"degraded_host,omitempty"`
}

func readHostStamp() hostStamp {
	h := hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	h.DegradedHost = h.NumCPU < 2
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h // not Linux: the stamp simply lacks the CPU model
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20) // the flags line is long
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if h.CPUModel == "" {
				h.CPUModel = strings.TrimSpace(val)
			}
		case "flags":
			for _, fl := range strings.Fields(val) {
				if fl == "avx2" {
					h.AVX2 = true
				}
			}
			return h
		}
	}
	return h
}

// warnDegraded prints the loud single-core banner to stderr.
func warnDegraded() {
	bar := strings.Repeat("=", 72)
	fmt.Fprintln(os.Stderr, bar)
	fmt.Fprintln(os.Stderr, "DEGRADED HOST: fewer than 2 CPUs. Four live ranks and the compute pool")
	fmt.Fprintln(os.Stderr, "serialize here, so throughput, pool and comm/compute numbers are not")
	fmt.Fprintln(os.Stderr, "comparable with any multi-core recording. Refusing to record (-out).")
	fmt.Fprintln(os.Stderr, bar)
}

// rusage returns the process's resource usage so far.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark in MB:
// ru_maxrss, which on Linux is the VmHWM counter in KB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// resetPeakRSS restarts the high-water mark at the current resident set
// (Linux: "5" into /proc/self/clear_refs), so each repetition reports its own
// peak and the run their median — the maximum over a whole run grows with the
// number of repetitions and swung 20 % between runs. Where the reset is not
// available the error is dropped on purpose: every repetition then reports
// the running maximum, which is the old behaviour.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

var refA, refB = refVector(), refVector()

func refVector() []float32 {
	v := make([]float32, 2048) // 8 KB: stays in L1
	for i := range v {
		v[i] = float32(i%13) * 0.001
	}
	return v
}

// refKernel is a fixed piece of work that belongs to the benchmark and never
// changes with the program: eight independent scalar multiply-add chains over
// L1-resident data, the resource a busy neighbour on a shared host takes away.
func refKernel() float32 {
	a, b := refA, refB
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for r := 0; r < 40000; r++ {
		for i := 0; i+8 <= len(a); i += 8 {
			s0 += a[i] * b[i]
			s1 += a[i+1] * b[i+1]
			s2 += a[i+2] * b[i+2]
			s3 += a[i+3] * b[i+3]
			s4 += a[i+4] * b[i+4]
			s5 += a[i+5] * b[i+5]
			s6 += a[i+6] * b[i+6]
			s7 += a[i+7] * b[i+7]
		}
	}
	return s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

var refSink []float32 // keeps the kernel's result alive

// hostRefMs runs the reference kernel on every processor at once (the
// workloads keep all of them busy too) and returns its mean wall time in
// milliseconds. It is reported beside the metrics and never applied to them:
// a run whose figure is well above another's ran on a slower host, which is
// what an `unresolved` verdict usually turns out to be.
func hostRefMs() float64 {
	procs := runtime.GOMAXPROCS(0)
	ms := make([]float64, procs)
	out := make([]float32, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			t0 := time.Now()
			out[p] = refKernel()
			ms[p] = time.Since(t0).Seconds() * 1e3
		}(p)
	}
	wg.Wait()
	refSink = out
	return mean(ms)
}
