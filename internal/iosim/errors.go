package iosim

import (
	"errors"
	"fmt"
)

// ErrInjected is the root cause of permanent faults injected by a
// rank's fault source (Chaos), and a sentinel for failure-injection
// tests.
var ErrInjected = errors.New("iosim: injected permanent fault")

// ErrDiskLost reports that the logical disk holding the file is gone: a
// scheduled disk loss (LAF.Lose) dropped the file, and every transfer
// through its handle fails permanently until the parity layer
// reconstructs the content from the surviving disks onto a replacement
// file. It wraps ErrInjected so existing fault-injection classification
// keeps working.
var ErrDiskLost = fmt.Errorf("iosim: logical disk lost: %w", ErrInjected)

// transienter is the error classification interface of the fault model:
// an error anywhere in a chain may declare itself transient, meaning a
// retry of the same operation has a reasonable chance of succeeding
// (controller hiccup, dropped request, torn transfer). Errors that do not
// implement it are treated as permanent.
type transienter interface{ Transient() bool }

// TransientError wraps an error and marks it as transient (retryable).
type TransientError struct{ Err error }

// Error returns the wrapped error's message.
func (e *TransientError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient reports that a retry may succeed.
func (e *TransientError) Transient() bool { return true }

// MarkTransient wraps err as transient; nil stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether any error in err's chain classifies itself
// as transient via a `Transient() bool` method.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(transienter); ok {
			return t.Transient()
		}
		err = errors.Unwrap(err)
	}
	return false
}

// CorruptionError reports a checksum mismatch on a read: the bytes
// delivered by the file do not match the CRC32 recorded when that block
// of the file was last written. It is transient because read-path
// corruption (a flipped bit on the wire) is repaired by re-reading;
// corruption at rest keeps failing and surfaces as an ExhaustedError
// wrapping this one.
type CorruptionError struct {
	File  string
	Block int64 // checksum block index within the file
}

// Error describes the mismatch.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("iosim: checksum mismatch on %s (block %d)", e.File, e.Block)
}

// Transient reports that a re-read may deliver intact data.
func (e *CorruptionError) Transient() bool { return true }

// ExhaustedError reports that the resilient I/O layer spent its whole
// retry budget without a successful operation. It is permanent: the
// caller must fail the execution (or restart from a checkpoint).
type ExhaustedError struct {
	Op       string
	File     string
	Attempts int
	Last     error
}

// Error summarizes the failed retry loop.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("iosim: %s %s: giving up after %d attempts: %v", e.Op, e.File, e.Attempts, e.Last)
}

// Unwrap exposes the last underlying failure.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// Transient reports false: the budget is spent, retrying is over. This
// stops IsTransient from walking into the (transient) wrapped cause.
func (e *ExhaustedError) Transient() bool { return false }
