package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"manywalks/internal/stats"
)

// machine is the header printed with every result: what the numbers were
// measured on. Scaling beyond NProc cores was not measured on this host and
// the header says so.
type machine struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	L2           string  `json:"l2"`
	L3           string  `json:"l3"`
	TimerFloorMs float64 `json:"platform.timer_floor_ms"`
	Unmeasured   string  `json:"unmeasured"`
}

func describeMachine() machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		L2:         cacheSize(2),
		L3:         cacheSize(3),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	m.TimerFloorMs = timerFloorMs()
	m.Unmeasured = "multi-core scaling beyond " + strconv.Itoa(m.NProc) + " cores"
	return m
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// cacheSize reports the size of cpu0's unified or data cache at level, as
// sysfs spells it ("4096K"), or "unknown".
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		typ, err2 := os.ReadFile(filepath.Join(d, "type"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if strings.TrimSpace(string(lv)) == strconv.Itoa(level) && strings.TrimSpace(string(typ)) != "Instruction" {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// timerFloorMs is the median delay, in milliseconds, of a 200µs time.Timer:
// the gather window the coalescer's default Tick really gets on this host.
func timerFloorMs() float64 {
	const samples = 41
	delays := make([]float64, samples)
	for i := range delays {
		t0 := time.Now()
		tm := time.NewTimer(200 * time.Microsecond)
		<-tm.C
		delays[i] = ms(int64(time.Since(t0)))
	}
	return stats.Median(delays)
}

// peakRSSMiB is the process's peak resident set size so far. Workloads
// read it as their measured window ends, before checking answers.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
