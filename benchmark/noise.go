package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

// readCPU samples /proc/stat; on hosts without it the steal share reads 0.
func readCPU() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	return parseCPULine(sc.Text())
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq
// steal ...": steal is the eighth value.
func parseCPULine(line string) cpuTimes {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealShareUntil is the share of CPU time stolen by the hypervisor
// between two samples.
func (a cpuTimes) stealShareUntil(b cpuTimes) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
