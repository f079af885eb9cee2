#include "workload/scale_up_config.hh"

#include <array>
#include <cassert>

namespace quasar::workload
{

bool
isDistributed(WorkloadType t)
{
    return t != WorkloadType::SingleNode;
}

bool
isLatencyCritical(WorkloadType t)
{
    return t == WorkloadType::LatencyService ||
           t == WorkloadType::StatefulService;
}

const std::string &
compressionName(Compression c)
{
    static const std::array<std::string, 3> names = {"none", "lzo",
                                                     "gzip"};
    return names[static_cast<size_t>(c)];
}

namespace
{

std::vector<int>
coreSteps(int max_cores)
{
    static const int steps[] = {1, 2, 4, 6, 8, 12, 16, 24};
    std::vector<int> out;
    for (int s : steps)
        if (s <= max_cores)
            out.push_back(s);
    if (out.empty())
        out.push_back(max_cores);
    return out;
}

std::vector<double>
memorySteps(double max_gb)
{
    static const double steps[] = {1, 2, 4, 8, 16, 24, 48};
    std::vector<double> out;
    for (double s : steps)
        if (s <= max_gb + 1e-9)
            out.push_back(s);
    if (out.empty())
        out.push_back(max_gb);
    return out;
}

} // namespace

std::vector<ScaleUpConfig>
scaleUpGrid(const sim::Platform &platform, WorkloadType type)
{
    std::vector<ScaleUpConfig> grid;
    if (type == WorkloadType::Analytics) {
        // Reduced (cores, memory) grid crossed with framework knobs.
        static const int cores_steps[] = {2, 4, 8, 12, 24};
        static const double mem_steps[] = {2, 4, 8, 24, 48};
        static const int mapper_steps[] = {2, 4, 8, 12};
        static const double heap_steps[] = {0.75, 1.5};
        static const Compression comp_steps[] = {Compression::Lzo,
                                                 Compression::Gzip};
        for (int c : cores_steps) {
            if (c > platform.cores)
                continue;
            for (double m : mem_steps) {
                if (m > platform.memory_gb + 1e-9)
                    continue;
                for (int mp : mapper_steps) {
                    for (double h : heap_steps) {
                        // Heaps must fit: mappers * heap <= memory.
                        if (mp * h > m + 1e-9)
                            continue;
                        for (Compression comp : comp_steps) {
                            ScaleUpConfig cfg;
                            cfg.cores = c;
                            cfg.memory_gb = m;
                            cfg.knobs.mappers_per_node = mp;
                            cfg.knobs.heap_gb = h;
                            cfg.knobs.compression = comp;
                            grid.push_back(cfg);
                        }
                    }
                }
            }
        }
    } else {
        for (int c : coreSteps(platform.cores)) {
            for (double m : memorySteps(platform.memory_gb)) {
                ScaleUpConfig cfg;
                cfg.cores = c;
                cfg.memory_gb = m;
                grid.push_back(cfg);
            }
        }
    }
    assert(!grid.empty() && "platform too small for any configuration");
    return grid;
}

std::vector<int>
scaleOutGrid(int max_nodes)
{
    std::vector<int> out;
    for (int n = 1; n <= 8 && n <= max_nodes; ++n)
        out.push_back(n);
    for (int n = 10; n <= 20 && n <= max_nodes; n += 2)
        out.push_back(n);
    for (int n = 24; n <= 40 && n <= max_nodes; n += 4)
        out.push_back(n);
    for (int n = 50; n <= max_nodes; n += 10)
        out.push_back(n);
    return out;
}

} // namespace quasar::workload
