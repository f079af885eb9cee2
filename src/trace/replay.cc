#include "trace/replay.hh"

#include <cassert>

namespace quasar::trace
{

void
TraceReplayer::install(sim::Cluster &cluster,
                       workload::WorkloadRegistry &registry,
                       driver::ScenarioDriver &driver)
{
    assert(plan_.empty() && "install() must be called once");

    // One seeded factory stream, consumed in arrival order: the
    // population is a pure function of (trace, seed), independent of
    // everything downstream.
    stats::Rng master(seed_);
    workload::WorkloadFactory factory{master.fork()};

    plan_.reserve(trace_.items.size());
    size_t idx = 0;
    for (const MappedItem &m : trace_.items) {
        workload::Workload w = churn::makeChurnWorkload(
            m.cls, idx, factory, cluster, "trace-");

        churn::ChurnItem item;
        item.cls = m.cls;
        item.arrival_s = m.arrival_s;
        if (m.depart_s > 0.0)
            item.depart_s = m.depart_s;
        // The source resized this instance mid-life.
        item.phase_change = m.phase_change;
        churn::installPlanned(item, std::move(w), trace_.horizon_s,
                              factory, registry, driver, plan_,
                              counts_);
        ++idx;
    }
}

} // namespace quasar::trace
