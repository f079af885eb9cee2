/**
 * @file
 * The seeded stream configurations more than one bench runs:
 * bench/churn's Pareto churn stream, and bench/overload's diurnal +
 * flash-crowd stream with the controller configuration its "on" legs
 * run. bench/accuracy_sweep runs both at other seeds.
 */

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "churn/churn.hh"
#include "core/overload.hh"
#include "tracegen/load_pattern.hh"

namespace quasar::bench
{

/** bench/churn's open-loop stream at `servers` (seed 20260806). */
inline churn::ChurnConfig
churnStream(int servers, double horizon_s)
{
    churn::ChurnConfig cfg;
    cfg.seed = 20260806;
    cfg.arrivals = churn::ArrivalKind::Pareto;
    cfg.pareto_alpha = 1.6;
    // Open-loop pressure scales with the cluster so the decision path
    // stays busy at every size.
    cfg.arrival_rate_per_s = 0.6 * double(servers) / 1000.0;
    cfg.horizon_s = horizon_s;
    cfg.phase_change_fraction = 0.06;
    cfg.server_mttf_s = 40.0 * horizon_s * double(servers);
    cfg.server_mttr_s = horizon_s / 6.0;
    // Short heavy-tailed lifetimes: steady arrival/departure churn
    // within the bench horizon.
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.4 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

/** Diurnal swell with a 10x flash crowd at t in [450, 600). */
inline tracegen::LoadPatternPtr
diurnalFlashCrowd()
{
    return std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.5},
                                               {150.0, 0.9},
                                               {300.0, 1.1},
                                               {440.0, 1.0},
                                               {450.0, 10.0},
                                               {595.0, 10.0},
                                               {600.0, 1.0},
                                               {750.0, 0.7},
                                               {900.0, 0.5}});
}

/** bench/overload's best-effort-heavy open-loop stream, shaped by the
 *  crowd pattern (seed 20260808). */
inline churn::ChurnConfig
crowdStream(int servers, double horizon_s)
{
    churn::ChurnConfig cfg;
    cfg.seed = 20260808;
    cfg.arrivals = churn::ArrivalKind::Poisson;
    cfg.arrival_rate_per_s = 0.16 * double(servers) / 200.0;
    cfg.rate_pattern = diurnalFlashCrowd();
    cfg.horizon_s = horizon_s;
    cfg.mix = {0.30, 0.15, 0.15, 0.40};
    cfg.phase_change_fraction = 0.05;
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.5 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

/** The controller configuration every bench/overload "on" leg runs. */
inline core::OverloadConfig
crowdController()
{
    core::OverloadConfig cfg;
    cfg.enabled = true;
    cfg.util_pressured = 0.85;
    cfg.util_overloaded = 0.97;
    cfg.depth_pressured = 8;
    cfg.depth_overloaded = 24;
    cfg.min_dwell_s = 30.0;
    cfg.defer_base_s = 15.0;
    cfg.defer_max_s = 60.0;
    cfg.shed_deadline_s = 120.0;
    cfg.aging_limit_s = 240.0;
    cfg.brownout = true;
    cfg.policy = core::ScalingPolicyKind::Pi;
    cfg.scale_interval_s = 30.0;
    return cfg;
}

} // namespace quasar::bench
