package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envStamp is printed with every result: host-time numbers mean nothing
// without the machine they were taken on.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q", e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel)
}

// nproc is the most goroutines the benchmark ever has doing work at once:
// sweep pool size, fabric worker count, experiments parallelism.
func nproc() int { return runtime.GOMAXPROCS(0) }

// procField returns the value of the first "key : value" line of a /proc
// file, "" when the file or key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0, fmt.Errorf("VmHWM not in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM: %w", err)
	}
	return kb / 1024, nil
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// workDir makes a scratch directory for one run under .bench_build in the
// current directory - the benchmark writes nowhere outside its checkout -
// and returns it with its cleanup.
func workDir(workload string) (string, func(), error) {
	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, workload+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
