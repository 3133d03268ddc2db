package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// pinThread restricts the calling OS thread to cpu (cpu < 0: every CPU)
// and reports whether the kernel accepted the mask. The caller holds
// runtime.LockOSThread, so the goroutine stays on the pinned thread.
func pinThread(cpu int) bool {
	var mask [16]uint64 // 1024 CPUs
	n := runtime.NumCPU()
	for c := 0; c < n && c < len(mask)*64; c++ {
		if cpu < 0 || c == cpu {
			mask[c/64] |= 1 << (c % 64)
		}
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	return errno == 0
}
