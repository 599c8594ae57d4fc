package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// provenance is stamped on every result: what was measured, where.
type provenance struct {
	Commit           string `json:"commit"`
	CPU              string `json:"cpu"`
	NProc            int    `json:"nproc"`
	GenGOMAXPROCS    int    `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS int    `json:"awdserve_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Network          string `json:"network"`
	CheckpointFS     string `json:"checkpoint_fs"`
}

// stamp describes the run; the checkout is the working directory.
func stamp(ckptDir string, genProcs, serverProcs int) provenance {
	return provenance{
		Commit:           commit("."),
		CPU:              cpuModel(),
		NProc:            runtime.NumCPU(),
		GenGOMAXPROCS:    genProcs,
		ServerGOMAXPROCS: serverProcs,
		GoVersion:        runtime.Version(),
		Network:          "loopback",
		CheckpointFS:     fsType(ckptDir),
	}
}

// commit names the measured source: the git commit when the checkout is a
// repository, else a digest of its Go sources and module files.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
