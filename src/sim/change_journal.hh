/**
 * @file
 * Change journal: a bounded append-only log of server mutations that
 * lets readers (the scheduler's dirty-set index) discover *which*
 * servers changed since their last visit in O(changes) instead of
 * scanning every server's change epoch per decision — the difference
 * between O(dirty) and O(N) bookkeeping at 10k servers.
 *
 * The cluster owns one journal; every placement-relevant Server
 * mutation (the same set that bumps Server::version()) appends the
 * server's id. Readers keep their own cursor into the log, so any
 * number of independent schedulers can consume it side by side.
 * Entries are *not* deduplicated — readers dedupe naturally by
 * comparing their cached epoch against Server::version() when they
 * refresh an entry.
 *
 * The log is bounded: when it reaches its capacity the oldest half is
 * dropped and the base offset advances. A reader whose cursor falls
 * behind the base has missed entries and must fall back to a full
 * version-check scan (exactly the pre-dirty-set behavior), then
 * resynchronize its cursor to end(). Memory therefore stays O(cap)
 * regardless of run length, and laggards degrade gracefully instead
 * of reading stale state.
 *
 * Storage is a fixed ring buffer, so compaction is an O(1) index
 * advance — the earlier vector-backed log paid an O(cap) erase-from-
 * front every cap/2 notes, a periodic latency spike in the tick loop
 * at scale. The absolute-offset contract (base()/end()/at()) is
 * unchanged; only the retained window's physical layout moved.
 *
 * Multi-reader cursor contract. The readers today: each scheduler's
 * MaintainedOrder keeps its own cursor; the failure memo and the
 * PerfOracle stamp record end() as a "nothing changed since" mark;
 * the QUASAR_VERIFY sweep reads the retained window whole.
 *
 *  1. Reads (base()/end()/at()/totalNoted()) are const and touch no
 *     mutable state, so one reader never perturbs another.
 *  2. Compaction only advances base() — retained offsets keep their
 *     values and entries never move to a different absolute offset.
 *     A reader must therefore snapshot `end()` once, replay
 *     [cursor, end), and resync its cursor to that snapshot.
 *  3. A laggard whose cursor < base() has lost entries to compaction
 *     (its window was dropped while it sat out); at() would serve it
 *     entries from the *wrong* offsets, so readers MUST check
 *     cursor >= base() before replaying and otherwise fall back to a
 *     full version-check scan, then resync to end(). at() asserts
 *     the window so a reader that skips the check dies loudly in
 *     debug builds instead of replaying aliased entries. With
 *     several cursors the laggard check is per-reader: one reader
 *     falling back never perturbs the others' incremental replay.
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace quasar::sim
{

/** Bounded multi-reader log of touched server ids. */
class ChangeJournal
{
  public:
    /** @param capacity max retained entries before compaction. */
    explicit ChangeJournal(size_t capacity = 4096)
        : cap_(capacity < 16 ? 16 : capacity), ring_(cap_)
    {
    }

    /** Record a mutation of the given server. */
    void note(ServerId id)
    {
        if (size_ == cap_) {
            // Drop the oldest half by advancing the ring head — O(1),
            // no element ever moves. Laggard readers detect the base
            // moving past their cursor and fall back to a full scan.
            size_t drop = size_ / 2;
            head_ = wrap(head_ + drop);
            base_ += drop;
            size_ -= drop;
        }
        ring_[wrap(head_ + size_)] = id;
        ++size_;
    }

    /** Offset of the oldest retained entry. */
    uint64_t base() const { return base_; }

    /** One past the newest entry (a fresh reader's cursor). */
    uint64_t end() const { return base_ + size_; }

    /** Entry at absolute offset pos (base() <= pos < end()). */
    ServerId at(uint64_t pos) const
    {
        // A cursor behind base() was compacted away; serving it would
        // alias a newer entry at the wrapped slot (see the laggard
        // clause of the multi-reader contract above).
        assert(pos >= base_ && pos < end());
        return ring_[wrap(head_ + size_t(pos - base_))];
    }

    /** Total mutations ever recorded (monotone). */
    uint64_t totalNoted() const { return end(); }

  private:
    size_t wrap(size_t i) const { return i < cap_ ? i : i - cap_; }

    size_t cap_;
    uint64_t base_ = 0;
    size_t head_ = 0; ///< ring slot of the entry at offset base_.
    size_t size_ = 0; ///< retained entries (<= cap_).
    std::vector<ServerId> ring_;
};

} // namespace quasar::sim

