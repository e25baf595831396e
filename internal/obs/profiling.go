package obs

import "runtime"

// Contention profiling. The runtime's mutex and block profilers are off
// by default because sampling costs a little on every contended lock;
// the daemons expose them behind a flag so a claim like "the sharded
// collector removed the ingest lock convoy" is verifiable in production:
//
//	spectrumd -profile-contention &
//	go tool pprof http://host:port/debug/pprof/mutex
//	go tool pprof http://host:port/debug/pprof/block
//
// AdminMux already serves both profiles (net/http/pprof's Index handler
// routes any named profile); they are simply empty until enabled here.

// EnableContentionProfiling turns on mutex and block profiling.
// mutexFraction samples 1/n of contended mutex events
// (runtime.SetMutexProfileFraction); blockRateNs samples goroutine
// blocking events lasting at least that many nanoseconds
// (runtime.SetBlockProfileRate). Values ≤ 0 leave the respective
// profiler untouched.
func EnableContentionProfiling(mutexFraction, blockRateNs int) {
	if mutexFraction > 0 {
		runtime.SetMutexProfileFraction(mutexFraction)
	}
	if blockRateNs > 0 {
		runtime.SetBlockProfileRate(blockRateNs)
	}
}
