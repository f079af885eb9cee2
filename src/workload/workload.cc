#include "workload/workload.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#ifdef QUASAR_VERIFY
#include <cstdio>
#include <cstdlib>
#endif

#include "workload/queueing.hh"

namespace quasar::workload
{

PerformanceTarget
PerformanceTarget::completionTime(double seconds, double total_work)
{
    assert(seconds > 0.0 && total_work > 0.0);
    PerformanceTarget t;
    t.kind = TargetKind::CompletionTime;
    t.completion_time_s = seconds;
    t.rate = total_work / seconds;
    return t;
}

PerformanceTarget
PerformanceTarget::qpsLatency(double qps, double qos_s)
{
    assert(qps > 0.0 && qos_s > 0.0);
    PerformanceTarget t;
    t.kind = TargetKind::QpsLatency;
    t.qps = qps;
    t.latency_qos_s = qos_s;
    return t;
}

PerformanceTarget
PerformanceTarget::ips(double rate)
{
    assert(rate > 0.0);
    PerformanceTarget t;
    t.kind = TargetKind::Ips;
    t.rate = rate;
    return t;
}

const GroundTruth &
Workload::truthAt(double t) const
{
    if (phase_change_time >= 0.0 && t >= phase_change_time)
        return phase_truth;
    return truth;
}

double
Workload::offeredQps(double t) const
{
    if (!load || !isLatencyCritical(type))
        return 0.0;
    return load->qpsAt(t);
}

interference::IVector
Workload::causedPressure(double t, double cores) const
{
    return truthAt(t).sensitivity.causedAt(cores);
}

WorkloadId
WorkloadRegistry::add(Workload w)
{
    WorkloadId id = items_.size();
    w.id = id;
    items_.push_back(std::make_unique<Workload>(std::move(w)));
    active_candidates_.push_back(id);
    return id;
}

bool
WorkloadRegistry::contains(WorkloadId id) const
{
    return id < items_.size();
}

Workload &
WorkloadRegistry::get(WorkloadId id)
{
    assert(contains(id));
    return *items_[id];
}

const Workload &
WorkloadRegistry::get(WorkloadId id) const
{
    assert(contains(id));
    return *items_[id];
}

std::vector<WorkloadId>
WorkloadRegistry::active() const
{
    // Self-healing compaction: ids are assigned monotonically and a
    // finished workload never reactivates, so dropping completed and
    // killed entries in place preserves ascending order and keeps the
    // candidate list at O(active) for the next call.
    std::erase_if(active_candidates_, [this](WorkloadId id) {
        const Workload &w = *items_[id];
        return w.completed || w.killed;
    });
    return active_candidates_;
}

std::vector<WorkloadId>
WorkloadRegistry::all() const
{
    std::vector<WorkloadId> out;
    out.reserve(items_.size());
    for (const auto &w : items_)
        out.push_back(w->id);
    return out;
}

double
PerfOracle::computeRate(const Workload &w, double t) const
{
    const GroundTruth &truth = w.truthAt(t);
    std::vector<double> rates;
    for (ServerId sid : cluster_.serversHosting(w.id)) {
        const sim::Server &srv = cluster_.server(sid);
        const sim::TaskShare *share = srv.share(w.id);
        assert(share);
        ScaleUpConfig cfg;
        cfg.cores = share->cores;
        cfg.memory_gb = share->memory_gb;
        cfg.knobs = w.active_knobs;
        double rate = truth.nodeRate(srv.platform(), cfg,
                                     srv.contentionFor(w.id));
        // Private partitions shrink the usable share of each isolated
        // resource slightly (Sec. 4.4 partitioning cost).
        for (size_t i = 0; i < interference::kNumSources; ++i)
            if (share->isolation[i] != 0.0)
                rate *= 0.95;
        // A degraded (sick) machine executes everything slower.
        rate *= srv.speedFactor();
        rates.push_back(rate);
    }
    if (rates.empty())
        return 0.0;
    double degrade =
        (t < w.degraded_until) ? w.degraded_factor : 1.0;
    if (w.type == WorkloadType::SingleNode)
        return rates.front() * degrade;
    return truth.jobRate(rates) * degrade;
}

namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

#ifdef QUASAR_VERIFY
uint64_t memo_checks = 0;
#endif

} // namespace

bool
PerfOracle::memoValid(const RateMemo &m, const Workload &w, double t,
                      uint64_t journal_end) const
{
    return m.journal_end == journal_end && sameBits(m.t, t) &&
           sameBits(m.degraded_until, w.degraded_until) &&
           sameBits(m.degraded_factor, w.degraded_factor) &&
           m.knobs.mappers_per_node == w.active_knobs.mappers_per_node &&
           sameBits(m.knobs.heap_gb, w.active_knobs.heap_gb) &&
           m.knobs.block_mb == w.active_knobs.block_mb &&
           m.knobs.compression == w.active_knobs.compression &&
           m.knobs.replication == w.active_knobs.replication;
}

double
PerfOracle::currentRate(const Workload &w, double t) const
{
    // Only the registry's own object is memoized: a detached copy
    // sharing its id may carry a different truth.
    if (!registry_.contains(w.id) || &registry_.get(w.id) != &w)
        return computeRate(w, t);
    if (memo_.size() <= w.id)
        memo_.resize(registry_.size());
    RateMemo &m = memo_[w.id];
    const uint64_t journal_end = cluster_.journal().end();
    if (memoValid(m, w, t, journal_end)) {
#ifdef QUASAR_VERIFY
        double fresh = computeRate(w, t);
        if (!sameBits(fresh, m.rate)) {
            std::fprintf(stderr,
                         "QUASAR_VERIFY: PerfOracle memo hit for "
                         "workload %llu at t=%.17g returned %.17g, a "
                         "recomputation gives %.17g\n",
                         static_cast<unsigned long long>(w.id), t,
                         m.rate, fresh);
            std::abort();
        }
        ++memo_checks;
#endif
        return m.rate;
    }
    m = {journal_end, t, w.degraded_until, w.degraded_factor,
         w.active_knobs, computeRate(w, t)};
    return m.rate;
}

#ifdef QUASAR_VERIFY
uint64_t
PerfOracle::memoChecks()
{
    return memo_checks;
}
#endif

double
PerfOracle::serviceCapacityQps(const Workload &w, double t) const
{
    assert(isLatencyCritical(w.type));
    return w.truthAt(t).capacityQps(currentRate(w, t));
}

double
PerfOracle::serviceP99(const Workload &w, double t) const
{
    return percentileLatency(w.offeredQps(t),
                             serviceCapacityQps(w, t));
}

double
PerfOracle::normalizedPerformance(const Workload &w, double t) const
{
    if (isLatencyCritical(w.type)) {
        // Deliverable-QPS-within-QoS over offered load. Above 1 the
        // service has headroom (a shrink signal for the manager);
        // below 1 it is dropping or QoS-violating queries.
        double offered = w.offeredQps(t);
        if (offered <= 0.0)
            return 1.0;
        double cap = serviceCapacityQps(w, t);
        return maxQpsWithinQos(cap, w.target.latency_qos_s) / offered;
    }
    if (w.target.rate <= 0.0)
        return 1.0;
    return currentRate(w, t) / w.target.rate;
}

double
PerfOracle::usedCores(const Workload &w, const sim::Server &srv,
                      const sim::TaskShare &share, double t) const
{
    const GroundTruth &truth = w.truthAt(t);
    double useful = std::min(double(share.cores), truth.parallelism);
    if (isLatencyCritical(w.type)) {
        double cap = serviceCapacityQps(w, t);
        double rho = cap > 0.0
                         ? std::clamp(w.offeredQps(t) / cap, 0.0, 1.0)
                         : 0.0;
        return useful * rho;
    }
    // Cores stalled on shared-resource contention are not doing
    // productive cycles; CPU utilization in the performance-counter
    // sense drops with interference.
    return useful *
           truth.sensitivity.multiplier(srv.contentionFor(w.id));
}

} // namespace quasar::workload
