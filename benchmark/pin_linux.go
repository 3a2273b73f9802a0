package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func affinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU runs the Go scheduler with one P and confines every thread
// of the process to the first CPU it may run on, so that the cluster and
// its clients take turns on one core and nothing crosses between cores.
// The box's two vCPUs belong to a shared host: what a wake-up or a cache
// line costs between them changes from minute to minute, and a 0.15 ms
// request that changes core at every hop then measures the host (see
// README, "One core").
func pinToOneCPU() error {
	runtime.GOMAXPROCS(1)
	allowed, err := affinity(0)
	if err != nil {
		return fmt.Errorf("reading the CPU affinity: %w", err)
	}
	var one cpuMask
	for i, word := range allowed {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	if one == (cpuMask{}) {
		return errors.New("the process may run on no CPU")
	}
	// A thread inherits the mask of the thread that starts it, so once a
	// pass over the threads finds every one pinned, those to come are too.
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return fmt.Errorf("listing the process's threads: %w", err)
		}
		pinned := true
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil {
				return fmt.Errorf("listing the process's threads: %w", err)
			}
			m, err := affinity(tid)
			if errors.Is(err, syscall.ESRCH) {
				continue // the thread has exited
			}
			if err != nil {
				return fmt.Errorf("reading the affinity of thread %d: %w", tid, err)
			}
			if m == one {
				continue
			}
			pinned = false
			if err := setAffinity(tid, one); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("pinning thread %d: %w", tid, err)
			}
		}
		if pinned {
			return nil
		}
	}
}
