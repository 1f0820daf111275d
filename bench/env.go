package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// environment records what a result depends on besides the code: the
// machine's parallelism, the toolchain, the revision built, and for a
// tier workload where the journals went.
func environment(cfg runConfig) map[string]string {
	env := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"revision":   "unknown",
		"seed":       strconv.FormatUint(cfg.seed, 10),
	}
	if _, ok := tierSpecNamed(cfg.workload); ok {
		env["journal"] = fmt.Sprintf("FileLog, fsync per record, %d shards", shards)
		env["fs"] = fsType(cfg.tmp)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env["revision"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env["revision"] += "+modified"
				}
			}
		}
	}
	return env
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	magic := uint64(st.Type)
	names := map[uint64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlay", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
