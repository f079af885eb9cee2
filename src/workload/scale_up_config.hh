/**
 * @file
 * Workload types, framework tuning knobs, and the quantized scale-up
 * configuration space.
 *
 * The scale-up classification matrix (paper Sec. 3.2) has one column
 * per quantized configuration: integer core counts and memory blocks,
 * plus the framework parameters for analytics jobs (mappers per node,
 * JVM heapsize, compression). Grids are generated per platform and
 * workload type by scaleUpGrid().
 */

#pragma once

#include <string>
#include <vector>

#include "sim/platform.hh"

namespace quasar::workload
{

/** The four workload classes Quasar manages (paper Sec. 3.1). */
enum class WorkloadType
{
    Analytics,       ///< Hadoop / Storm / Spark style framework jobs.
    LatencyService,  ///< stateless low-latency services (webserver).
    StatefulService, ///< memcached / Cassandra style stateful services.
    SingleNode,      ///< single-server batch (SPEC/PARSEC style).
};

/** True when the type can use more than one server. */
bool isDistributed(WorkloadType t);

/** True for services with a QPS/latency target. */
bool isLatencyCritical(WorkloadType t);

/** Intermediate-data compression codecs (Hadoop-style). */
enum class Compression
{
    None,
    Lzo,
    Gzip,
};

const std::string &compressionName(Compression c);

/** Framework parameters tuned by the scale-up classification. */
struct FrameworkKnobs
{
    int mappers_per_node = 8;
    double heap_gb = 1.0;
    int block_mb = 64;
    Compression compression = Compression::Lzo;
    int replication = 2;

    bool operator==(const FrameworkKnobs &) const = default;
};

/** One quantized per-server allocation (a scale-up matrix column). */
struct ScaleUpConfig
{
    int cores = 1;
    double memory_gb = 1.0;
    FrameworkKnobs knobs; ///< meaningful for Analytics only.

    bool operator==(const ScaleUpConfig &) const = default;
};

/**
 * The quantized scale-up column space for a workload type on a
 * platform. Analytics grids cross a reduced (cores, memory) grid with
 * framework-knob combinations; other types use the full quantized
 * (cores, memory) grid.
 */
std::vector<ScaleUpConfig> scaleUpGrid(const sim::Platform &platform,
                                       WorkloadType type);

/**
 * The quantized node-count column space for scale-out classification:
 * 1..8 then progressively coarser steps up to max_nodes (paper:
 * offline profiling covers 1..100 nodes).
 */
std::vector<int> scaleOutGrid(int max_nodes = 100);

} // namespace quasar::workload

