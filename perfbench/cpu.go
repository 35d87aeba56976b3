package main

import (
	"io"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the CPU time a process has run, summed over its threads,
// from the kernel's scheduler clock (clock_gettime on the process's CPU
// clock). On a kernel with paravirtual steal accounting the scheduler
// clock leaves out time the hypervisor gave to other virtual machines,
// and it never counts time spent waiting for a core, so the figure
// prices the work done and not how busy the host was. pid 0 is this
// process.
func cpuTime(pid int) (time.Duration, error) {
	// CLOCK_PROCESS_CPUTIME_ID, or MAKE_PROCESS_CPUCLOCK(pid,
	// CPUCLOCK_SCHED) from the kernel's posix-timers.h.
	clock := int32(2)
	if pid != 0 {
		clock = int32(^pid)<<3 | 2
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// cpuTotal is the CPU time of this process and of the given ones; a pid
// of 0 stands for a process that is not running and adds nothing.
func cpuTotal(pids []int) (time.Duration, error) {
	total, err := cpuTime(0)
	if err != nil {
		return 0, err
	}
	for _, pid := range pids {
		if pid == 0 {
			continue
		}
		d, err := cpuTime(pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // the clock exists on every Linux the benchmark runs on
	}
	return time.Duration(ts.Nano())
}

// The speed probe is a fixed piece of work, run every probeEvery during
// the measured phase on a thread of this process: probeSteps random reads
// and writes over a 2 MiB table, then probeTrips 512-byte round trips
// through a Unix socket pair. Its CPU time tells how fast the host ran
// user code and system calls at that moment; it is the benchmark's own
// code, so no change to the program moves it.
const (
	probeSlots = 1 << 18
	probeSteps = 1 << 15
	probeTrips = 64
	probeEvery = 50 * time.Millisecond
	// probeRef is the probe's median CPU time on the reference host, a
	// 2-core Intel Xeon virtual machine, over thirty runs of the three
	// workloads.
	probeRef = 940 * time.Microsecond
)

// prober holds the probe's table and socket pair.
type prober struct {
	table []uint64
	fds   [2]int
	buf   []byte
	x     uint64
	sink  uint64
}

func newProber() (*prober, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, err
	}
	return &prober{table: make([]uint64, probeSlots), fds: fds, buf: make([]byte, 512), x: 1}, nil
}

func (p *prober) close() {
	_ = syscall.Close(p.fds[0])
	_ = syscall.Close(p.fds[1])
}

// once runs the probe once and returns the CPU time it took on this
// thread. The caller locks the goroutine to its thread.
func (p *prober) once() (time.Duration, error) {
	t0 := threadCPU()
	x := p.x
	for range probeSteps {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		h := x * 0x2545F4914F6CDD1D
		j := h & (probeSlots - 1)
		p.sink += p.table[j]
		p.table[j] = h
	}
	p.x = x
	for range probeTrips {
		if _, err := syscall.Write(p.fds[0], p.buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(fdReader(p.fds[1]), p.buf); err != nil {
			return 0, err
		}
	}
	return threadCPU() - t0, nil
}

// fdReader reads a file descriptor with read(2).
type fdReader int

func (f fdReader) Read(b []byte) (int, error) {
	n, err := syscall.Read(int(f), b)
	if n < 0 {
		n = 0
	}
	return n, err
}

// speedProbe runs the probe every period until stop is closed and
// returns the CPU time of each run.
func speedProbe(period time.Duration, stop <-chan struct{}) ([]time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p, err := newProber()
	if err != nil {
		return nil, err
	}
	defer p.close()
	var out []time.Duration
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-stop:
			probeSink.Add(p.sink)
			return out, nil
		}
		d, err := p.once()
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
}

// probeSink keeps the probe's result alive so the compiler cannot drop
// the work.
var probeSink atomic.Uint64

// probeSpeed is the host's speed relative to the reference host: the
// reference probe time over the median probe time of the run; 1 when
// the probe never ran.
func probeSpeed(runs []time.Duration) float64 {
	if len(runs) == 0 {
		return 1
	}
	v := make([]float64, len(runs))
	for i, d := range runs {
		v[i] = float64(d)
	}
	return float64(probeRef) / median(v)
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
