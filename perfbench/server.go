package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one awdserve process on loopback.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	stdout chan struct{} // closed once the stdout drain has finished
}

// startServer launches awdserve with telemetry off and its checkpoint
// directory at ckptDir, and waits for its listening line.
func startServer(bin, ckptDir string, gomaxprocs int) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	// If this process dies without stopping the server, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start awdserve: %w", err)
	}
	p := &serverProc{cmd: cmd, stdout: make(chan struct{})}
	br := bufio.NewReader(out)
	for {
		line, err := br.ReadString('\n')
		if addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on "); ok {
			p.addr = addr
			break
		}
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("awdserve exited before listening: %v", err)
		}
	}
	go func() {
		defer close(p.stdout)
		_, _ = io.Copy(io.Discard, br) // awdserve prints nothing more that matters
	}()
	return p, nil
}

// stop kills the server and waits for it and its output drain to end.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Kill() // already-exited is fine: Wait reports it
	_ = p.cmd.Wait()
	if p.addr != "" {
		<-p.stdout
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

// cpu returns the server's user+system CPU time so far.
func (p *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the server's peak resident set size in bytes.
func (p *serverProc) peakRSS() (int64, error) {
	return statusKB(p.cmd.Process.Pid, "VmHWM:")
}

func statusKB(pid int, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}
