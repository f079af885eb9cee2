#include "core/admission.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasar::core
{

void
AdmissionQueue::applyBackoff(Entry &e, double t)
{
    if (e.backoff_s <= 0.0)
        return;
    double delay = std::min(e.backoff_s * std::pow(2.0, e.attempts),
                            e.backoff_max_s);
    ++e.attempts;
    e.not_before = t + delay;
}

void
AdmissionQueue::enqueue(WorkloadId id, double t)
{
    // Re-enqueue after a failed retry keeps the original wait start
    // (and the backoff policy the entry was created with).
    auto it = in_retry_.find(id);
    if (it != in_retry_.end()) {
        Entry e = it->second;
        in_retry_.erase(it);
        applyBackoff(e, t);
        pending_.push_back(e);
        return;
    }
    assert(!contains(id));
    pending_.push_back({id, t, 0, 0.0, 0.0, 0.0});
    queued_at_.emplace(id, t);
}

void
AdmissionQueue::enqueueWithBackoff(WorkloadId id, double t, double base_s,
                                   double max_s)
{
    Entry e{id, t, 0, 0.0, base_s, max_s};
    auto it = in_retry_.find(id);
    if (it != in_retry_.end()) {
        e = it->second;
        in_retry_.erase(it);
        e.backoff_s = base_s;
        e.backoff_max_s = max_s;
    } else {
        assert(!contains(id));
        queued_at_.emplace(id, t);
    }
    applyBackoff(e, t);
    pending_.push_back(e);
}

std::vector<WorkloadId>
AdmissionQueue::drainForRetry(double now)
{
    // Due entries move to in_retry_ (so a nested drain during an
    // in-progress retry pass neither duplicates nor drops entries) and
    // return to pending_ via enqueue() if the retry fails.
    std::vector<WorkloadId> out;
    std::vector<Entry> not_due;
    for (Entry &e : pending_) {
        // The aging guard trumps backoff: an entry past its age limit
        // is due no matter how far its retry timer was pushed out.
        bool aged = aging_limit_s_ > 0.0 &&
                    now - e.enqueued_at >= aging_limit_s_;
        if (e.not_before <= now || aged) {
            out.push_back(e.id);
            in_retry_.emplace(e.id, e);
        } else {
            not_due.push_back(e);
        }
    }
    pending_ = std::move(not_due);
    return out;
}

void
AdmissionQueue::dropPending(WorkloadId id)
{
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [id](const Entry &e) {
                                      return e.id == id;
                                  }),
                   pending_.end());
}

void
AdmissionQueue::admitted(WorkloadId id, double t)
{
    auto it = queued_at_.find(id);
    if (it == queued_at_.end())
        return; // was never queued; zero wait
    waits_.add(t - it->second);
    queued_at_.erase(it);
    if (in_retry_.erase(id) == 0)
        dropPending(id);
}

void
AdmissionQueue::abandon(WorkloadId id)
{
    if (queued_at_.erase(id) == 0)
        return; // not queued: the common case, once per completion
    if (in_retry_.erase(id) == 0)
        dropPending(id);
}

double
AdmissionQueue::enqueuedAt(WorkloadId id) const
{
    auto it = queued_at_.find(id);
    return it == queued_at_.end() ? -1.0 : it->second;
}

bool
AdmissionQueue::contains(WorkloadId id) const
{
    return queued_at_.contains(id);
}

} // namespace quasar::core
