/**
 * @file
 * Admission failure memo: skip queued retries that are proven to fail.
 *
 * Every admission drain offers each due queued workload to the
 * scheduler again, and on a saturated cluster almost all of those
 * attempts fail exactly as they did the last time — the allocator
 * walks the same candidates and rejects them for the same reasons.
 * The memo remembers each failure together with the ChangeJournal
 * offset it was taken at, and on the next retry asks the journal what
 * changed since. The proof rests on GreedyScheduler::firstNodeVerdict,
 * a test that reads only the candidate server's own state:
 *
 *  - No allocation at all: allocate() returns nullopt iff no server
 *    admits a first node. Servers the journal did not note since the
 *    failure are bitwise unchanged and still reject; if every noted
 *    server rejects too, the retry fails again.
 *  - A single-node allocation too weak to admit (best-effort below
 *    the manager's kAdmitFraction of its requirement): the allocation
 *    is the best-ranked server that admits. If that server (the
 *    anchor) was not noted, and no noted server admits, the walk
 *    lands on the same anchor with the same pick and fails again.
 *
 * Everything else the decision reads must be unchanged too. The owner
 * forgets a record whenever the workload's estimate changes, and the
 * requirement must match bitwise — or, for a record with no anchor
 * whose every rejection holds at a larger requirement
 * (GreedyScheduler::holdsAtLargerRequirement), it may have grown: a
 * deadline job's rate only rises while it waits, and a service's
 * forecast load drifts both ways. A journal window the ring buffer
 * already compacted proves nothing, so that retry runs.
 *
 * A proof re-establishes the failure against the current state, so
 * the record advances to the journal's end and the requirement just
 * proven. Under QUASAR_VERIFY the manager re-runs every skipped
 * attempt through the full_rescan oracle and aborts if it would have
 * succeeded.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/scheduler.hh"
#include "sim/change_journal.hh"

namespace quasar::core
{

/** Per-workload record of the last failed admission attempt. */
class FailureMemo
{
  public:
    /** "Nothing could be placed" marker for noteFailure's anchor. */
    static constexpr ServerId kNoAnchor =
        std::numeric_limits<ServerId>::max();

    /**
     * Record a failed attempt of id at `required`, decided against
     * the cluster state the journal has noted up to its end(). anchor
     * is the server of a rejected single-node allocation, kNoAnchor
     * when allocate() found nothing; holds_larger says every server
     * was rejected for a reason that holds at a larger requirement.
     */
    void noteFailure(WorkloadId id, const sim::ChangeJournal &journal,
                     double required, ServerId anchor, bool holds_larger)
    {
        entries_[id] = {journal.end(), required, anchor,
                        holds_larger && anchor == kNoAnchor};
    }

    /** Drop id's record (placed, gone, or its estimate changed). */
    void forget(WorkloadId id) { entries_.erase(id); }

    /** Whether a failure of id is on record. */
    bool recorded(WorkloadId id) const { return entries_.contains(id); }

    /** Workloads with a failure on record. */
    size_t size() const { return entries_.size(); }

    /**
     * True when a retry of id at `required` is proven to fail (see the
     * file comment). `verdict(sid)` must be the first-node verdict of
     * the retry's decision; it is called at most once per distinct
     * server noted since the recorded failure.
     */
    template <typename Verdict>
    bool provenFutile(WorkloadId id, const sim::ChangeJournal &journal,
                      double required, Verdict &&verdict)
    {
        auto it = entries_.find(id);
        if (it == entries_.end())
            return false;
        Entry &e = it->second;
        const bool same = std::bit_cast<uint64_t>(e.required) ==
                          std::bit_cast<uint64_t>(required);
        if (!(same || (e.holds_larger && required > e.required)) ||
            e.cursor < journal.base())
            return false;
        const uint64_t end = journal.end();
        bool holds_larger = e.holds_larger;
        ++stamp_;
        for (uint64_t pos = e.cursor; pos < end; ++pos) {
            ServerId sid = journal.at(pos);
            if (sid >= seen_.size())
                seen_.resize(size_t(sid) + 1, 0);
            if (seen_[sid] == stamp_)
                continue; // duplicate note of a server already checked
            seen_[sid] = stamp_;
            if (sid == e.anchor)
                return false;
            NodeReject r = verdict(sid);
            if (r == NodeReject::None)
                return false;
            holds_larger = holds_larger &&
                           GreedyScheduler::holdsAtLargerRequirement(r);
        }
        e = {end, required, e.anchor, holds_larger};
        return true;
    }

  private:
    struct Entry
    {
        uint64_t cursor; ///< journal end() the failure holds at.
        double required; ///< the requirement it was decided at.
        ServerId anchor;
        /** Every rejection also holds at a larger requirement. */
        bool holds_larger;
    };

    std::unordered_map<WorkloadId, Entry> entries_;
    /** Per-server stamp deduplicating one window walk. */
    std::vector<uint64_t> seen_;
    uint64_t stamp_ = 0;
};

} // namespace quasar::core
