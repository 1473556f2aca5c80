// Read-only degraded mode: the write path's answer to a disk that has
// stopped cooperating.
//
// A WAL append failure means a mutation could not be made durable. One
// failure may be transient, but a poisoned log handle (a failed fsync —
// the kernel's view of the file is unknown) or a run of consecutive
// failures means acknowledging further writes would be lying about
// durability. Instead of dying, the system flips to read-only: every
// commit (ApplyBatch, and the rule installs of Induce and Maintain)
// refuses with ErrReadOnly while queries keep serving from
// the last installed snapshot, whose rule base is still sound — a
// snapshot only installs after its WAL record is durable, so nothing
// the readers see was ever acknowledged-but-lost.
//
// Recovery is a successful Checkpoint: the atomic save persists the
// current state without needing the WAL, and the log reset rewrites the
// log file from scratch, clearing the poison. The operator reaches it
// via the shell's .checkpoint or by restarting the process (replay +
// fresh handle).

package core

import (
	"fmt"
	"time"
)

// ErrReadOnly is returned by every commit (ApplyBatch, Induce, Maintain)
// while the system is in read-only degraded mode. Queries are
// unaffected.
var ErrReadOnly = fmt.Errorf("core: system is read-only (degraded after WAL append failures; checkpoint or restart to recover)")

// defaultDegradeAfter is how many consecutive WAL append failures flip
// the system to read-only when DurableOptions.DegradeAfter is unset. A
// poisoned log handle flips it immediately regardless.
const defaultDegradeAfter = 3

// DegradedInfo describes why and since when the system is read-only.
type DegradedInfo struct {
	// Reason is the failure that triggered degradation.
	Reason string
	// Since is when the system entered the degraded state.
	Since time.Time
}

// Degraded returns the read-only degraded state, or nil while healthy.
// It is safe to call from any goroutine without locks, so health and
// metrics endpoints can report it while the write path is wedged.
func (s *System) Degraded() *DegradedInfo {
	return s.degraded.Load()
}

// noteAppendFailure records one failed WAL append and decides whether
// to enter read-only mode: immediately when the log handle is poisoned
// (the file's durable state is unknown), or after degradeAfter
// consecutive failures. Caller holds wmu.
//
//ilint:locked wmu
func (s *System) noteAppendFailure(err error) {
	s.walFails++
	poisoned := s.log.Poisoned() != nil
	if !poisoned && s.walFails < s.degradeAfter {
		return
	}
	if s.degraded.Load() != nil {
		return
	}
	reason := fmt.Sprintf("wal append failed %d consecutive time(s): %v", s.walFails, err)
	if poisoned {
		reason = fmt.Sprintf("wal handle poisoned: %v", err)
	}
	s.degraded.Store(&DegradedInfo{Reason: reason, Since: s.clock.Now()})
}

// clearDegradedLocked leaves read-only mode after the state has been
// durably persisted by other means (a successful checkpoint). Caller
// holds wmu.
//
//ilint:locked wmu
func (s *System) clearDegradedLocked() {
	s.walFails = 0
	s.degraded.Store(nil)
}
