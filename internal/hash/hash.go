// Package hash holds the one string hash the whole system stripes and
// routes by. Three packages used to carry private copies of the same
// FNV-1a loop — trust's lock stripes, the replica ring's placement and
// the stream session table — which meant a well-meaning edit to any one
// of them could silently diverge stripe selection from ring placement.
// They all import this package now, and a cross-package identity test
// pins the constants, so the hash can only change everywhere at once.
package hash

// FNV1a is the 64-bit FNV-1a hash, inlined so callers on hot paths do
// not allocate a hash.Hash. The identity test cross-checks it against
// stdlib hash/fnv. It takes the bytes of a request body as readily as a
// string, so hashing a key still sitting in a decode buffer does not
// copy it.
func FNV1a[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is the splitmix64 avalanche finalizer. Raw FNV-1a is fine when
// only the low bits are read through a mask (lock striping), but keys
// differing in their last byte — "node-1" vs "node-2", exactly the
// fleet's naming shape — land within a few multiples of the FNV prime
// of each other. Mix64 spreads them across the full 64-bit range, which
// the consistent-hash ring needs for placement and the dedup fast path
// needs so slot selection stays independent of stripe selection (both
// start from the same FNV1a value but must not share low bits).
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
