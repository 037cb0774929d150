package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sutNice is the niceness increment the SUT process runs at.
const sutNice = 5

// sutProc is one running SUT process.
type sutProc struct {
	cmd   *exec.Cmd
	addrs sutAddrs
	done  chan error
	once  sync.Once
	log   *os.File
}

// readyWatcher is the SUT's stdout: it delivers the READY payload.
type readyWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string
	sent  bool
}

func (r *readyWatcher) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf.Write(p)
	if !r.sent {
		for _, l := range strings.Split(r.buf.String(), "\n") {
			if s, ok := strings.CutPrefix(l, readyLine); ok && strings.HasSuffix(s, "}") {
				r.ready <- s
				r.sent = true
				break
			}
		}
	}
	return len(p), nil
}

// control is the client for harness requests made between phases:
// readiness, reports. It keeps no idle connections.
var control = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// startSUT starts a SUT process over dir and returns it with its set-up
// time: from process start until it answers its first request.
func startSUT(exe string, w *workload, dir string, traced bool) (*sutProc, float64, error) {
	args := []string{"sut", "-workload", w.name, "-data", dir}
	if traced {
		args = append(args, "-trace")
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, 0, err
	}
	rw := &readyWatcher{ready: make(chan string, 1)}
	// The SUT runs at a lower scheduling priority than the generator, so
	// on a machine the two share the generator wakes on time and keeps
	// its schedule; the SUT still gets every cycle the generator leaves.
	cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(sutNice), exe}, args...)...)
	cmd.Stdout = rw
	cmd.Stderr = logf
	// A generator that dies, however it dies, takes its SUT with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &sutProc{cmd: cmd, done: make(chan error, 1), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() { p.done <- cmd.Wait() }()
	select {
	case s := <-rw.ready:
		if err := json.Unmarshal([]byte(s), &p.addrs); err != nil {
			p.kill()
			return nil, 0, err
		}
	case err := <-p.done:
		p.done <- err
		p.kill()
		return nil, 0, fmt.Errorf("sut exited during set-up (%v): %s", err, tail(dir+".log"))
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, 0, fmt.Errorf("sut not ready after 60s: %s", tail(dir+".log"))
	}
	resp, err := control.Get(p.addrs.Entry + "/healthz")
	if err != nil {
		p.kill()
		return nil, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return p, time.Since(start).Seconds(), nil
}

// stop sends SIGTERM (drain, flush, close) and waits for the process;
// after 20s it is killed.
func (p *sutProc) stop() error {
	var err error
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err = <-p.done:
		case <-time.After(20 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			err = fmt.Errorf("sut did not stop within 20s of SIGTERM")
		}
		p.log.Close()
	})
	return err
}

// kill stops the process at once — a crash, not a drain — and waits.
func (p *sutProc) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill()
		<-p.done
		p.log.Close()
	})
}

// peakRSSKiB reads the process's peak resident set (VmHWM).
func (p *sutProc) peakRSSKiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if s, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// report fetches the SUT's /bench/report.
func (p *sutProc) report() (*sutReport, error) {
	resp, err := control.Get(p.addrs.Nodes[0] + "/bench/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("bench report: %s: %s", resp.Status, b)
	}
	var r sutReport
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	return &r, nil
}

// get issues one control GET and drains the answer.
func (p *sutProc) get(path string) error {
	resp, err := control.Get(p.addrs.Entry + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return nil
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// copyDir copies a data directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
