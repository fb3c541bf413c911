package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Snapshot is what dsfbench -json emits: the tables and the machine they
// were recorded on, so a timing figure is never read without its host.
type Snapshot struct {
	Machine *Machine `json:"machine"`
	Tables  []*Table `json:"tables"`
}

// Machine fingerprints the host and the code of a recording.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// CurrentMachine fingerprints this process's host. Commit is the git HEAD
// of the working directory, suffixed "+dirty" when a tracked Go source or
// go.mod differs from it (a snapshot being written over a committed one
// does not count), or "unknown" outside a git checkout.
func CurrentMachine() *Machine {
	return &Machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
	}
}

// String renders m on one line; a snapshot recorded before fingerprints
// existed has none.
func (m *Machine) String() string {
	if m == nil {
		return "not recorded"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s cpu=%q commit=%s", m.NumCPU, m.GOMAXPROCS, m.Go, m.CPU, m.Commit)
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
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no", "--", "*.go", "go.mod").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

// ParseSnapshot decodes a dsfbench -json snapshot. It also reads the bare
// table array that snapshots were before they recorded a machine; those
// come back with a nil Machine.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "[") {
		err := json.Unmarshal(data, &s.Tables)
		return &s, err
	}
	err := json.Unmarshal(data, &s)
	return &s, err
}
