package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// statFields returns the fields of a /proc/<pid>/stat body after the
// command name, f[0] being field 3 (state). The command name in field 2 may
// hold spaces and parentheses, so fields are counted from the last ')'.
func statFields(body string) ([]string, error) {
	end := strings.LastIndexByte(body, ')')
	if end < 0 {
		return nil, fmt.Errorf("proc stat: no command field")
	}
	return strings.Fields(body[end+1:]), nil
}

// parseState returns the state letter of a /proc/<pid>/stat body: R, S, D,
// T (stopped by a signal), ...
func parseState(body string) (byte, error) {
	f, err := statFields(body)
	if err != nil {
		return 0, err
	}
	if len(f) == 0 || len(f[0]) != 1 {
		return 0, fmt.Errorf("proc stat: no state field")
	}
	return f[0][0], nil
}

// parseStat returns the user+system CPU seconds of a /proc/<pid>/stat body.
func parseStat(body string) (float64, error) {
	f, err := statFields(body)
	if err != nil {
		return 0, err
	}
	// utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseStatus returns the kB-valued fields of a /proc/<pid>/status body
// (VmHWM, VmRSS, ...), keyed by field name.
func parseStatus(body string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(body, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			continue
		}
		if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// procCPU reads a process's cumulative CPU seconds.
func procCPU(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStat(string(buf))
}

// procStopped reports whether every thread of a process is stopped.
func procStopped(pid int) (bool, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return false, err
	}
	for _, t := range tasks {
		buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/stat", pid, t.Name()))
		if os.IsNotExist(err) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return false, err
		}
		st, err := parseState(string(buf))
		if err != nil {
			return false, err
		}
		if st != 'T' {
			return false, nil
		}
	}
	return true, nil
}

// procHWM reads a process's peak resident set size in MB.
func procHWM(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, ok := parseStatus(string(buf))["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("proc %d status: no VmHWM", pid)
	}
	return float64(kb) / 1024, nil
}

// loadavg reads the 1-minute load average.
func loadavg() float64 {
	buf, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(buf))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
