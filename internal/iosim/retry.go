package iosim

import (
	"hash/crc32"
	"sync"
)

// RetryPolicy bounds the retry loop of the resilient I/O layer. Backoff
// is exponential with a cap, and is charged to the *simulated* clock: a
// retried slab transfer takes longer in simulated seconds exactly as it
// would on a real machine.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure.
	MaxRetries int
	// BaseBackoff is the simulated wait before the first retry, in
	// seconds; it doubles on every subsequent retry.
	BaseBackoff float64
	// MaxBackoff caps the exponential growth.
	MaxBackoff float64
}

// DefaultRetryPolicy returns the policy used by the CLI tools: five
// retries starting at 1ms of simulated backoff, capped at 16ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 5, BaseBackoff: 1e-3, MaxBackoff: 16e-3}
}

// backoff returns the simulated wait before retry `attempt` (0-based):
// BaseBackoff doubled attempt times, capped at MaxBackoff. A MaxBackoff
// of zero (or less) means uncapped exponential growth.
// Backoff returns the simulated backoff, in seconds, charged before
// re-attempt number attempt+1. It is exported for the parity layer, which
// runs its own retry loops under the same policy.
func (p RetryPolicy) Backoff(attempt int) float64 { return p.backoff(attempt) }

func (p RetryPolicy) backoff(attempt int) float64 {
	b := p.BaseBackoff
	for i := 0; i < attempt && (p.MaxBackoff <= 0 || b < p.MaxBackoff); i++ {
		b *= 2
	}
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		b = p.MaxBackoff
	}
	return b
}

// ChecksumBlockBytes is the granularity of integrity tracking: every
// aligned block of file bytes carries one CRC32 (IEEE). Reads through a
// resilient disk are physically widened to block boundaries so that every
// touched block can be verified; the *accounted* request and byte counts
// are unchanged (they describe the logical access, as everywhere else in
// this package).
const ChecksumBlockBytes = 1024

// zeroBlockCRCs[n] is the CRC32 (IEEE) of n zero bytes, for every prefix
// of a checksum block. Computed once at init so seeding a fresh file
// neither allocates a zero buffer nor re-hashes it per create.
var zeroBlockCRCs = func() (t [ChecksumBlockBytes + 1]uint32) {
	var z [1]byte
	for n := 1; n <= ChecksumBlockBytes; n++ {
		t[n] = crc32.Update(t[n-1], crc32.IEEETable, z[:])
	}
	return
}()

// Resilience is the shared state of the resilient I/O layer: the retry
// policy and the per-file block checksum store. One Resilience is shared
// by all processors of an execution (per-file entries are disjoint under
// the LAF ownership model) and survives across Run/Resume calls on the
// same file system, so restarted executions keep verifying data written
// before the crash.
type Resilience struct {
	// Policy bounds retries and backoff.
	Policy RetryPolicy

	mu    sync.Mutex
	files map[string]map[int64]uint32
}

// NewResilience returns a resilience context with the given policy and an
// empty checksum store.
func NewResilience(policy RetryPolicy) *Resilience {
	return &Resilience{Policy: policy, files: make(map[string]map[int64]uint32)}
}

// set records the checksum of one block.
func (r *Resilience) set(name string, block int64, crc uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.files[name]
	if !ok {
		f = make(map[int64]uint32)
		r.files[name] = f
	}
	f[block] = crc
}

// get looks up the checksum of one block.
func (r *Resilience) get(name string, block int64) (uint32, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	crc, ok := r.files[name][block]
	return crc, ok
}

// del forgets one block (its content is no longer known with certainty).
func (r *Resilience) del(name string, block int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.files[name], block)
}

// dropFile forgets every checksum of the named file.
func (r *Resilience) dropFile(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.files, name)
}

// seedZero records the checksums of a freshly created, zero-filled file
// of the given byte length, so even never-written blocks verify.
func (r *Resilience) seedZero(name string, bytes int64) {
	r.dropFile(name)
	if bytes <= 0 {
		return
	}
	full := zeroBlockCRCs[ChecksumBlockBytes]
	blocks := (bytes + ChecksumBlockBytes - 1) / ChecksumBlockBytes
	r.mu.Lock()
	defer r.mu.Unlock()
	f := make(map[int64]uint32, blocks)
	for b := int64(0); b < blocks; b++ {
		lo := b * ChecksumBlockBytes
		hi := lo + ChecksumBlockBytes
		if hi > bytes {
			f[b] = zeroBlockCRCs[bytes-lo]
		} else {
			f[b] = full
		}
	}
	r.files[name] = f
}

// Record replaces the stored checksums for the blocks fully or partially
// covered by buf (the file bytes at [off, off+len(buf)), with off
// block-aligned and buf ending either on a block boundary or at end of
// file). The parity layer uses it to reseed integrity state after
// reconstructing a file from surviving disks.
func (r *Resilience) Record(name string, off int64, buf []byte) {
	for pos := 0; pos < len(buf); pos += ChecksumBlockBytes {
		end := pos + ChecksumBlockBytes
		if end > len(buf) {
			end = len(buf)
		}
		block := (off + int64(pos)) / ChecksumBlockBytes
		r.set(name, block, crc32.ChecksumIEEE(buf[pos:end]))
	}
}

// Check verifies buf against the stored checksums like the resilient read
// path does, returning the first mismatching block and ok == false on a
// mismatch. Blocks without a stored checksum are skipped.
func (r *Resilience) Check(name string, off int64, buf []byte) (int64, bool) {
	return r.verifyBlocks(name, off, buf)
}

// verifyBlocks checks buf (the file bytes at [off, off+len(buf)), with
// off block-aligned) against the stored checksums. Blocks with no stored
// checksum are skipped. It returns the first mismatching block index and
// ok == false on a mismatch.
func (r *Resilience) verifyBlocks(name string, off int64, buf []byte) (int64, bool) {
	for pos := 0; pos < len(buf); pos += ChecksumBlockBytes {
		end := pos + ChecksumBlockBytes
		if end > len(buf) {
			end = len(buf)
		}
		block := (off + int64(pos)) / ChecksumBlockBytes
		want, ok := r.get(name, block)
		if !ok {
			continue
		}
		if crc32.ChecksumIEEE(buf[pos:end]) != want {
			return block, false
		}
	}
	return 0, true
}
