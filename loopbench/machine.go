package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the machine and run a result came from. Numbers
// from two fingerprints that differ in anything but the seed are not
// comparable: wall-clock metrics depend on the CPU and on how many cores
// the datapath's worker pool gets (MeasureParallel(batch, 0) uses
// GOMAXPROCS workers).
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
}

func machineFingerprint(workload string, seed uint64, trace bool) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; other
// platforms report GOARCH only.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
