//go:build !linux

package main

// pinThread is a no-op where the benchmark cannot set thread affinity.
func pinThread(cpu int) bool { return false }
