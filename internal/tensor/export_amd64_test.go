package tensor

// HasAVX2 reports whether the kernels run the assembly on this machine.
func HasAVX2() bool { return useAVX2 }

// WithGoLoops runs f with the kernels on their portable Go loops, then
// restores the CPUID choice. It is the only way to reach the Go path on a
// CPU with AVX2; tests in this package do not run in parallel, so the
// switch is never read by another test while it is cleared.
func WithGoLoops(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}
