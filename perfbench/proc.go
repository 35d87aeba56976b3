package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one sigserver child process. It can be stopped gracefully,
// killed, and started again with the same arguments and directories.
type node struct {
	bin      string
	args     []string
	logPath  string
	httpAddr string
	cmd      *exec.Cmd
	exited   chan struct{} // closed once cmd.Wait returns
	waitErr  error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// newNode prepares a sigserver listening on a fresh loopback port with
// the given extra flags; it does not start it.
func newNode(bin, logPath string, extra ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-log-level", "error"}, extra...)
	return &node{bin: bin, args: args, logPath: logPath, httpAddr: addr}, nil
}

func (n *node) url() string { return "http://" + n.httpAddr }

// start launches the process. The child is killed if the benchmark dies
// first.
func (n *node) start() error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(n.bin, n.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return fmt.Errorf("start sigserver: %w", err)
	}
	n.cmd = cmd
	n.exited = make(chan struct{})
	go func() {
		n.waitErr = cmd.Wait()
		_ = logf.Close()
		close(n.exited)
	}()
	return nil
}

// running reports whether the process has been started and not reaped.
func (n *node) running() bool {
	if n.cmd == nil {
		return false
	}
	select {
	case <-n.exited:
		return false
	default:
		return true
	}
}

// waitReady polls /readyz until it answers 200, the process exits, or
// the timeout passes.
func (n *node) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(n.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-n.exited:
			return fmt.Errorf("sigserver exited before ready (%v); log: %s", n.waitErr, n.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sigserver not ready after %s; log: %s", timeout, n.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startReady starts the process and waits for readiness.
func (n *node) startReady() error {
	if err := n.start(); err != nil {
		return err
	}
	return n.waitReady(60 * time.Second)
}

// stop sends SIGTERM, which makes sigserver drain and write its final
// snapshot, and waits for the exit.
func (n *node) stop() error {
	if !n.running() {
		return nil
	}
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-n.exited:
		if n.waitErr != nil {
			return fmt.Errorf("sigserver exit: %v; log: %s", n.waitErr, n.logTail())
		}
		return nil
	case <-time.After(60 * time.Second):
		n.kill()
		return errors.New("sigserver ignored SIGTERM for 60s")
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (n *node) kill() {
	if !n.running() {
		return
	}
	_ = n.cmd.Process.Kill()
	<-n.exited
}

// pid is the process id; 0 when the process is not running.
func (n *node) pid() int {
	if !n.running() {
		return 0
	}
	return n.cmd.Process.Pid
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (n *node) peakRSSMiB() (float64, error) {
	if !n.running() {
		return 0, errors.New("sigserver not running")
	}
	f, err := os.Open("/proc/" + strconv.Itoa(n.cmd.Process.Pid) + "/status")
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
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// logTail returns the end of the node's log for error messages.
func (n *node) logTail() string {
	data, err := os.ReadFile(n.logPath)
	if err != nil {
		return "(no log)"
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// nodes tracks every child so that all of them are killed on exit.
type nodes []*node

func (ns *nodes) add(n *node) *node {
	*ns = append(*ns, n)
	return n
}

func (ns nodes) killAll() {
	for _, n := range ns {
		n.kill()
	}
}
