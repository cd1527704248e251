package mp

import "github.com/ooc-hpf/passion/internal/bufpool"

// Message payloads follow an ownership-transfer protocol over the
// bufpool arena, fronted on every rank by the rank's own cache
// (Proc.Cache, a bufpool.Cache):
//
//   - Send copies the caller's data into a buffer from the rank's cache;
//     the caller keeps its slice. SendOwned instead takes ownership of an
//     arena buffer the caller acquired (or received), transferring it
//     without a copy; the caller must not touch it afterwards.
//   - AllToAllOwned is the collective of the same kind: it takes
//     ownership of every buffer in parts (AllToAll copies each as it is
//     sent), each slot emptied before its buffer is sent, so a caller
//     that releases what is left in parts on its way out — after an
//     error or a panic — releases each buffer exactly once. Its result
//     slice belongs to the Proc and is valid until the Proc's next
//     AllToAllOwned; the buffers in it are the caller's, as after
//     AllToAll.
//   - Recv returns an arena buffer the receiver owns: it either releases
//     it to its Cache once done, or adopts it (keeps it indefinitely and
//     never releases). Adoption is always safe — an unreleased buffer is
//     ordinary garbage-collected memory — it merely forgoes reuse.
//
// Steady-state traffic therefore allocates nothing and takes no lock: a
// payload cycles from the sender's cache through the mailbox into the
// receiving rank's cache, which its next send draws on. The collectives'
// roots rotate in the plans that run hot (GAXPY's global sum is rooted at
// each column's owner), so what a rank gains as a root it spends as a
// leaf; a cache that runs dry takes from the arena and one that is full
// spills to it. A rank's cache is flushed to the arena when the rank
// returns (Proc.reset), so a finished machine holds no payload.
//
// AcquireBuf and ReleaseBuf are the arena path for code that has no rank:
// a buffer made before a run and sent owned, a payload read after mp.Run
// returned, or a mailbox emptied once every rank has returned. A rank may
// call them too — a buffer is a buffer to either side — it merely skips
// its cache. Either way a payload is released exactly once.
//
// A message is a payload or a count. Send, SendOwned and every
// collective but one put payloads in their messages, and Recv accepts
// nothing else. ReduceElided alone sends counts — the number of elements
// a phantom-mode reduction would have carried, and no buffer — and only
// its own walk receives them; there is nothing to own, release or leak.
// The two never meet in a correct plan: all ranks of one reduction call
// the same form, and a Recv or a reduction that meets the other kind
// panics with rank, peer and tag rather than hand anyone a nil payload.

// AcquireBuf returns an n-element payload buffer from the arena with
// arbitrary contents, for use with SendOwned; a rank takes one from its
// Cache instead.
func AcquireBuf(n int) []float64 { return bufpool.GetF64(n) }

// ReleaseBuf returns a buffer obtained from AcquireBuf or Recv to the
// arena, bypassing any rank's cache. The caller must not touch the buffer afterwards. nil and
// foreign (non-arena) slices are accepted and ignored, so callers can
// release unconditionally.
func ReleaseBuf(b []float64) { bufpool.PutF64(b) }
