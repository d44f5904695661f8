package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"honestplayer/internal/repclient"
)

// node is one trustd child process.
type node struct {
	id          string
	addr        string
	metricsAddr string
	ledger      string
	args        []string
	logPath     string

	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// newNodes lays out count trustd nodes under dir: ports, ledger
// directories, and the flags that place them. Nothing else is set, so
// every node runs trustd's default assessor, engine and cache.
func newNodes(dir string, count int, memBudget string) ([]*node, error) {
	nodes := make([]*node, count)
	for i := range nodes {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		maddr, err := freePort()
		if err != nil {
			return nil, err
		}
		id := string(rune('a' + i))
		nodes[i] = &node{
			id: id, addr: addr, metricsAddr: maddr,
			ledger:  filepath.Join(dir, "ledger-"+id),
			logPath: filepath.Join(dir, "trustd-"+id+".log"),
		}
	}
	var peers []string
	for _, n := range nodes {
		peers = append(peers, n.id+"="+n.addr)
	}
	for _, n := range nodes {
		n.args = []string{"-addr", n.addr, "-ledger", n.ledger, "-metrics-addr", n.metricsAddr}
		if memBudget != "" {
			n.args = append(n.args, "-mem-budget", memBudget)
		}
		if count > 1 {
			n.args = append(n.args, "-node-id", n.id, "-peers", strings.Join(peers, ","))
		}
	}
	return nodes, nil
}

// start launches the process. The child is killed if the scoreboard dies.
func (n *node) start(bin string) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, n.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start trustd %s: %w", n.id, err)
	}
	n.cmd, n.done = cmd, make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a killed node carries no information
		logf.Close()
		close(n.done)
	}()
	return nil
}

// waitReady polls until the node answers a ping, or the deadline passes.
func (n *node) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-n.done:
			return fmt.Errorf("trustd %s exited during start-up (see %s)", n.id, n.logPath)
		default:
		}
		c, err := repclient.Dial(n.addr, repclient.WithTimeout(time.Second), repclient.WithProtocol(repclient.ProtoV2))
		if err == nil {
			err = c.Ping()
			c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trustd %s not ready after %s: %w", n.id, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (n *node) kill() {
	if n.cmd == nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGKILL) // fails only if already exited
	<-n.done
	n.cmd = nil
}

// cpuTime returns the process's user+sys CPU time from /proc.
func (n *node) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSS returns the process's VmHWM in bytes.
func (n *node) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metricz fetches and decodes GET /metricz.
func (n *node) metricz(ctx context.Context) (metrics, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.metricsAddr+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var m metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("metricz: %w", err)
	}
	return m, nil
}

// metrics is a decoded /metricz body. Lookups are tolerant: a field this
// trustd does not report is absent, never an error.
type metrics map[string]any

// num returns the number at a slash-separated path ("ledger/records")
// and whether it was present.
func (m metrics) num(path string) (float64, bool) {
	v, ok := m.get(path)
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}

// str returns the string at a slash-separated path.
func (m metrics) str(path string) (string, bool) {
	v, ok := m.get(path)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

func (m metrics) get(path string) (any, bool) {
	var cur any = map[string]any(m)
	for _, part := range strings.Split(path, "/") {
		obj, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		if cur, ok = obj[part]; !ok {
			return nil, false
		}
	}
	return cur, true
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
