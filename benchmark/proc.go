package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the checkout: the harness builds into benchDir/.build and
// writes only below benchDir/out.
type env struct {
	root     string // checkout root (holds BENCHMARK.json and cmd/kcore-server)
	benchDir string // root/benchmark
	server   string // path of the built kcore-server binary

	setupRetries int // set-ups that failed and were tried again (see setUp)
}

// findEnv walks up from the working directory to the checkout root. `go run
// -C benchmark .` and `go test` both start in benchmark/.
func findEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
	bench := filepath.Join(dir, "benchmark")
	return &env{root: dir, benchDir: bench, server: filepath.Join(bench, ".build", "kcore-server")}, nil
}

func (e *env) outDir() string { return filepath.Join(e.benchDir, "out") }

// buildServer compiles cmd/kcore-server from the working tree. The go tool
// skips the link when the binary is already current.
func (e *env) buildServer() error {
	cmd := exec.Command("go", "build", "-o", e.server, "./cmd/kcore-server")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building kcore-server: %v\n%s", err, out)
	}
	return nil
}

// tempDir creates a scratch directory under out/ (WAL directories, server
// logs); the caller removes it.
func (e *env) tempDir(name string) (string, error) {
	base := filepath.Join(e.outDir(), "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// procs tracks every live server process so that exit, timeout, a signal or
// a panic can kill them all.
var procs struct {
	sync.Mutex
	live map[*proc]struct{}
}

type proc struct {
	cmd  *exec.Cmd
	log  string // file holding the server's stderr
	exit chan struct{}
}

// freeAddr finds a free localhost port by binding and closing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer starts kcore-server in its own process group with its output
// in dir/<name>.log. GOMAXPROCS is set explicitly so the engine's worker
// count does not follow the machine.
func (e *env) startServer(maxProcs int, dir, name string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.server, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, log: logPath, exit: make(chan struct{})}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*proc]struct{})
	}
	procs.live[p] = struct{}{}
	procs.Unlock()
	go func() {
		_ = cmd.Wait() // a killed server's exit status is not an error here
		close(p.exit)
	}()
	return p, nil
}

// kill SIGKILLs the server's process group and waits until it has ended.
func (p *proc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-p.exit
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
}

func (p *proc) exited() bool {
	select {
	case <-p.exit:
		return true
	default:
		return false
	}
}

// logTail returns the end of the server's log, for error messages.
func (p *proc) logTail() string {
	data, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(data) > 16<<10 {
		data = data[len(data)-(16<<10):]
	}
	return strings.TrimSpace(string(data))
}

// stacks ends the server with SIGQUIT, which makes the Go runtime write
// every goroutine's stack to its log, and returns the log's tail. It is how
// a failed run tells a hung server from a slow machine.
func (p *proc) stacks() string {
	_ = syscall.Kill(p.cmd.Process.Pid, syscall.SIGQUIT) // already gone is fine
	select {
	case <-p.exit:
	case <-time.After(5 * time.Second):
	}
	return p.logTail()
}

// killAll ends every server still running.
func killAll() {
	procs.Lock()
	live := make([]*proc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", sc.Text(), err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (p *proc) peakRSSMB() (float64, error) { return peakRSSMB(p.cmd.Process.Pid) }

// waitReady polls GET /readyz until it answers 200.
func (c *client) waitReady(p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, err := c.get("/readyz", nil)
		if err == nil && status == 200 {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("server exited before becoming ready:\n%s", p.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (last: status %d, err %v):\n%s", timeout, status, err, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
