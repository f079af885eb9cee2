#include "workload/queueing.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasar::workload
{

double
percentileLatency(double offered_qps, double capacity_qps, double p)
{
    assert(p > 0.0 && p < 100.0);
    if (capacity_qps <= 0.0 || offered_qps >= capacity_qps)
        return kSaturatedLatency;
    double headroom = capacity_qps - offered_qps;
    double lat = -std::log(1.0 - p / 100.0) / headroom;
    return std::min(lat, kSaturatedLatency);
}

double
maxQpsWithinQos(double capacity_qps, double qos_s, double p)
{
    assert(qos_s > 0.0);
    double needed_headroom = -std::log(1.0 - p / 100.0) / qos_s;
    return std::max(0.0, capacity_qps - needed_headroom);
}

double
fractionMeetingQos(double offered_qps, double capacity_qps, double qos_s)
{
    if (capacity_qps <= 0.0 || offered_qps >= capacity_qps)
        return 0.0;
    double headroom = capacity_qps - offered_qps;
    return std::clamp(1.0 - std::exp(-headroom * qos_s), 0.0, 1.0);
}

double
servedQps(double offered_qps, double capacity_qps)
{
    return std::min(std::max(offered_qps, 0.0),
                    std::max(capacity_qps, 0.0));
}

} // namespace quasar::workload
