/**
 * @file
 * Tail-latency queueing model for latency-critical services.
 *
 * Each service is approximated as an M/M/1-style station whose service
 * capacity (QPS) is derived from the allocation via the ground-truth
 * rate model. The exponential sojourn tail gives closed forms for the
 * p99 latency, the maximum load meeting a latency QoS (the "knee" of
 * the paper's Fig. 2 throughput-latency curves), and the fraction of
 * requests meeting QoS — the metric of the paper's Figs. 8e and 9.
 */

#pragma once

namespace quasar::workload
{

/** Latency reported when a service is saturated (offered >= capacity). */
constexpr double kSaturatedLatency = 60.0;

/**
 * p-th percentile sojourn time (seconds).
 * @param offered_qps arriving load.
 * @param capacity_qps service capacity.
 * @param p percentile in (0, 100).
 */
double percentileLatency(double offered_qps, double capacity_qps,
                         double p = 99.0);

/**
 * Highest offered load (QPS) whose p-th percentile latency stays
 * within qos_s; 0 when the capacity cannot meet the QoS at any load.
 */
double maxQpsWithinQos(double capacity_qps, double qos_s,
                       double p = 99.0);

/**
 * Fraction of requests with sojourn <= qos_s at the given load
 * (1 - exp(-(capacity - offered) * qos) for a stable station, 0 when
 * saturated).
 */
double fractionMeetingQos(double offered_qps, double capacity_qps,
                          double qos_s);

/** Delivered throughput: min(offered, capacity). */
double servedQps(double offered_qps, double capacity_qps);

} // namespace quasar::workload

