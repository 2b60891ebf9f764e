package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint describes the host a result came from.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WriteNs    float64 `json:"loopback_write_syscall_ns"`
	Traffic    string  `json:"traffic"`
}

func hostFingerprint() (fingerprint, error) {
	ns, err := loopbackWriteNs()
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WriteNs:    ns,
		Traffic:    "loopback TCP and UDP between hosts in one process",
	}, nil
}

// loopbackWriteNs measures one 1-byte write syscall on a loopback TCP
// connection whose peer drains it: the median of several batches.
func loopbackWriteNs() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer w.Close()
	a := <-acc
	if a.err != nil {
		return 0, a.err
	}
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, a.c)
		close(drained)
	}()
	const batch = 2000
	one := []byte{1}
	var per []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := w.Write(one); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	w.Close()
	<-drained
	a.c.Close()
	sort.Float64s(per)
	return per[len(per)/2], nil
}

// procStat is the process's kernel-side counters.
type procStat struct {
	syscr, syscw  uint64 // read and write syscalls, from /proc/self/io
	cpu           time.Duration
	nvcsw, nivcsw int64
}

func readProc() (procStat, error) {
	var p procStat
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return p, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return p, fmt.Errorf("parsing /proc/self/io %s: %w", k, err)
		}
		switch k {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return p, err
	}
	p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	p.nvcsw, p.nivcsw = ru.Nvcsw, ru.Nivcsw
	return p, nil
}

// cpuTicks reads the host-wide CPU time counters of /proc/stat: the ticks
// the hypervisor gave to other guests (steal) and all ticks.
func cpuTicks() (steal, total uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// stealShare reports the share of the host's CPU time stolen by other
// guests since (steal0, total0): a run taken while it is high measured a
// busy machine, not the program.
func stealShare(steal0, total0 uint64) string {
	steal, total, err := cpuTicks()
	if err != nil || total == total0 {
		return "steal unknown"
	}
	return fmt.Sprintf("steal %.1f%% of CPU time", 100*float64(steal-steal0)/float64(total-total0))
}
