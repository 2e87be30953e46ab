package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the CPU time the whole process has used, every thread
// (the Go runtime's garbage collector included), to the nanosecond.
//
// The end-to-end time metrics are CPU time, not wall time. On a shared
// virtual machine the same binary's wall time per operation moved 1.3 to
// 1.6 times between minutes while its CPU time per operation moved far
// less: most of the difference is time the process was ready but not
// running. README.md gives the figures.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// The clock exists on every Linux since 2.6.12; only a bug
		// (a bad pointer) can make the call fail.
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
