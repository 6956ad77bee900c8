package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"rsonpath/internal/simd"
)

// envStamp records what a result was measured on. Two results are
// comparable only when they ran on the same SIMD backend: the backend
// decides which classification kernels run, so a change of backend moves
// every number without any change to the code.
type envStamp struct {
	CPUModel     string   `json:"cpu_model"`
	CPUFlags     []string `json:"cpu_flags"`
	SimdBackend  string   `json:"simd_backend"`
	SimdBackends []string `json:"simd_backends"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NumCPU       int      `json:"nproc"`
	GoVersion    string   `json:"go_version"`
	// Commit is the git commit the checkout was built from, "unknown" when
	// the checkout is not a git repository.
	Commit   string `json:"commit"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
}

func stampEnv(root, workload string, seed int64, seconds int, trace bool) envStamp {
	model, flags := cpuInfo()
	return envStamp{
		CPUModel:     model,
		CPUFlags:     flags,
		SimdBackend:  simd.Backend(),
		SimdBackends: simd.Backends(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
	}
}

// cpuInfo reads the first processor's model name and flags from
// /proc/cpuinfo; elsewhere both are empty.
func cpuInfo() (model string, flags []string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == nil {
				flags = strings.Fields(v)
			}
		}
		if model != "" && flags != nil {
			break
		}
	}
	if model == "" {
		model = "unknown"
	}
	return model, flags
}

// gitCommit reads the commit checked out at root from its .git directory,
// following HEAD to a loose or packed ref; "unknown" when root is not a
// git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // a detached HEAD holds the commit itself
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sum, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sum
		}
	}
	return "unknown"
}
