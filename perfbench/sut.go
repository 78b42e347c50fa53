package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a system-under-test server process.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when stdout reaches EOF
}

// startChild runs a server binary and waits until it prints the
// "serving on ADDR" line every server of the repository prints.
func startChild(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A server outliving a killed benchmark would hold its port and CPU.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 && !sent {
				addrCh <- strings.TrimSpace(line[i+len("serving on "):])
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("%s exited before serving", bin)
		}
		c.addr = addr
		return c, nil
	case <-time.After(15 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not start serving within 15s", bin)
	}
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if it has not within 10s.
func (c *child) stop() error {
	if c == nil || c.cmd.Process == nil {
		return nil
	}
	// An error means the process already exited; Wait below reports how.
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-c.done
		exited <- c.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill() // as above
		return <-exited
	}
}

// cpu returns the process's user+system CPU time so far.
func (c *child) cpu() time.Duration { return procCPU(c.cmd.Process.Pid) }

// hwmMB returns the process's peak resident set (VmHWM) in MB.
func (c *child) hwmMB() float64 { return procHWM(strconv.Itoa(c.cmd.Process.Pid)) }

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 for /proc.
const clockTick = 100

// procCPU reads utime+stime of a process from /proc/PID/stat.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTick
}

// procHWM reads VmHWM (kB) from /proc/PID/status, in MB.
func procHWM(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// saveSpans writes a traced run's spans under .bench_build/traces.
func saveSpans(o *outcome, rc runConfig, spans []span) {
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.csv", rc.workload, rc.seed))
	if err := writeSpans(path, spans); err != nil {
		o.logf("spans not written: %v", err)
		return
	}
	o.logf("%d spans written to %s", len(spans), path)
}
