package diskstore

// SetCrashAfterWAL arms the crash fault point: the next batch appends
// and fsyncs its WAL records, then fails with err instead of being
// applied — the on-disk state a power cut between the two phases leaves
// behind. The store poisons, so the hook fires at most once per Open.
func (s *Store) SetCrashAfterWAL(err error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	s.crashAfterWAL = err
}

// SetCommitGate installs a function the group committer calls after it
// swaps a batch out and before that batch's WAL append, so a test can
// hold a batch short of durability and decide what stages behind it.
// Install it before the first mutation.
func (s *Store) SetCommitGate(gate func()) { s.commitGate = gate }

// Staged reports how many mutations the batch currently open for
// staging holds.
func (s *Store) Staged() int {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	return s.gcCur.count
}
