package main

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// pinToOneCPU restricts the calling thread, and with it every process
// started from it afterwards, to the highest-numbered CPU it may run on. It
// locks the goroutine to its thread so that those processes are started
// from the restricted thread.
//
// The runs are made on one CPU because the reference box does not spread
// threads over its two: a runnable thread is moved to an idle CPU only after
// most of a second (measured: 0.6 to 0.9 s; a stock kernel takes a few
// milliseconds), far longer than the bursts of a micro-batch, so whether the
// Go runtime's threads share a CPU is settled by where they happened to wake
// up early in the process and then lasts. On two CPUs that gave two regimes
// per workload, a whole run in one or the other (run-queue delay 1 s vs.
// 6 s per 10 s, median window latency 28 vs. 43 ms on video-kill), often
// alternating between back-to-back runs; spreads of 0.4 where the bound is
// 0.1. On one CPU the same ten runs spread by 0.01 to 0.03, and the run
// needs a fifth less CPU per record. The child sees one CPU, so its
// GOMAXPROCS is its nproc, 1, and the report says so.
func pinToOneCPU() error {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for word := len(mask) - 1; word >= 0; word-- {
		if mask[word] == 0 {
			continue
		}
		bit := 63
		for mask[word]&(1<<uint(bit)) == 0 {
			bit--
		}
		mask = [16]uint64{}
		mask[word] = 1 << uint(bit)
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
			return fmt.Errorf("sched_setaffinity: %w", errno)
		}
		return nil
	}
	return fmt.Errorf("no CPU in the affinity mask")
}
