package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux this benchmark runs on.
const clockTicksPerSecond = 100

// parseStatCPU extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The comm field may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no comm field in %q", stat)
	}
	// After the comm field come state (field 3) onwards; utime and stime
	// are fields 14 and 15.
	fields := strings.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// parseStatusHWM extracts VmHWM (peak resident set), in MB, from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuSeconds reads a live process's consumed CPU time.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// peakRSSMB reads a live process's peak resident set size.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(data))
}

// selfCPUSeconds is the benchmark process's own consumed CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// fdLimit is the soft limit on open files.
func fdLimit() (uint64, error) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0, err
	}
	return lim.Cur, nil
}

// freeAddrs reserves n distinct ephemeral loopback ports by binding
// them all and then releasing them; the children that are handed the
// addresses bind them next. Binding one at a time could hand out the
// same port twice.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// children tracks every process the benchmark started, so that exit —
// normal, failed, or by signal — leaves none behind.
type children struct {
	mu    sync.Mutex
	procs map[*child]struct{}
}

// child is one started process and the file its stderr went to.
type child struct {
	cmd     *exec.Cmd
	logPath string
	owner   *children
	exited  chan struct{} // closed once Wait returned
}

func newChildren() *children {
	return &children{procs: map[*child]struct{}{}}
}

// start launches a tracked child whose stdout and stderr go to a log
// file in dir. The child dies with the benchmark even on SIGKILL.
func (cs *children) start(dir, name string, argv ...string) (*child, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor after Start
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{cmd: cmd, logPath: logPath, owner: cs, exited: make(chan struct{})}
	cs.mu.Lock()
	cs.procs[c] = struct{}{}
	cs.mu.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: children are killed, not asked
		close(c.exited)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// alive reports whether the child has not exited yet.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop kills the child and returns once it has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.exited
	c.owner.mu.Lock()
	delete(c.owner.procs, c)
	c.owner.mu.Unlock()
}

// logTail returns the end of the child's log, for error messages.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// stopAll kills and reaps every child still tracked.
func (cs *children) stopAll() {
	cs.mu.Lock()
	procs := make([]*child, 0, len(cs.procs))
	for c := range cs.procs {
		procs = append(procs, c)
	}
	cs.mu.Unlock()
	for _, c := range procs {
		c.stop()
	}
}

// stopOnSignal reaps the children and removes dir when the benchmark is
// interrupted, then exits with the conventional 128+signal status.
func (cs *children) stopOnSignal(dir string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-ch
		cs.stopAll()
		_ = os.RemoveAll(dir)
		os.Exit(128 + int(sig.(syscall.Signal)))
	}()
}

// waitFor polls cond until it holds, the child died, or the timeout
// passed. The pause between polls is short because set-up times of a
// few milliseconds are measured through it.
func waitFor(c *child, timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if c != nil && !c.alive() {
			return fmt.Errorf("%s: child exited: %s", what, c.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not reached within %s", what, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
