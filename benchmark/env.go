package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envHeader is the environment every result carries.
type envHeader struct {
	GoVersion   string  `json:"go_version"`
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Kernel      string  `json:"kernel"`
	DataFS      string  `json:"data_fs"`
	FlushPolicy string  `json:"flush_policy"`
	Commit      string  `json:"commit"`
	Date        string  `json:"date"`
	Seed        uint64  `json:"seed"`
	Workload    string  `json:"workload"`
	Trace       bool    `json:"trace"`
	Seconds     float64 `json:"seconds"`
}

func newEnvHeader(workload string, seed uint64, seconds float64, trace bool, dataDir, flush string) envHeader {
	return envHeader{
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Kernel:      strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		DataFS:      fsType(dataDir),
		FlushPolicy: flush,
		Commit:      gitCommit("."),
		Date:        time.Now().UTC().Format(time.RFC3339),
		Seed:        seed,
		Workload:    workload,
		Trace:       trace,
		Seconds:     seconds,
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

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

// Filesystem magic numbers (statfs f_type) of the types worth naming.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x858458F6: "ramfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
	0x5346544E: "ntfs",
	0xF2F52010: "f2fs",
}

// fsType names the filesystem holding path (or its nearest existing
// parent).
func fsType(path string) string {
	for p := path; ; p = filepath.Dir(p) {
		var st syscall.Statfs_t
		if err := syscall.Statfs(p, &st); err == nil {
			if n, ok := fsNames[int64(st.Type)]; ok {
				return n
			}
			return fmt.Sprintf("0x%x", st.Type)
		}
		if p == filepath.Dir(p) {
			return "unknown"
		}
	}
}

// memoryBacked reports filesystems on which fsync costs nothing.
func memoryBacked(fs string) bool { return fs == "tmpfs" || fs == "ramfs" }

// gitCommit reads HEAD from the checkout's .git directory, without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
