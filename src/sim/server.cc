#include "sim/server.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasar::sim
{

using interference::IVector;
using interference::kNumSources;

Server::Server(ServerId id, const Platform &platform, int fault_zone,
               size_t platform_index)
    : id_(id), platform_(platform), platform_index_(platform_index),
      fault_zone_(fault_zone)
{
    assert(platform_.topology.valid(platform_.cores));
    num_sockets_ = platform_.topology.numSockets();
    std::vector<IVector> caps =
        platform_.topology.splitCapacity(platform_.contention_capacity);
    for (int s = 0; s < num_sockets_; ++s)
        socket_caps_[size_t(s)] = caps[size_t(s)];
    cross_ = platform_.topology.cross_socket;
}

bool
Server::canFit(int cores, double memory_gb, double storage_gb) const
{
    if (state_ == ServerState::Down)
        return false;
    return cores <= coresFree() && memory_gb <= memoryFree() + 1e-9 &&
           storage_gb <= storageFree() + 1e-9;
}

std::vector<TaskShare>
Server::markDown()
{
    std::vector<TaskShare> displaced;
    if (state_ == ServerState::Down)
        return displaced;
    bumpVersion();
    state_ = ServerState::Down;
    speed_factor_ = 1.0;
    displaced.swap(tasks_);
    for (IVector &v : injected_)
        v = interference::zeroVector();
    if (membership_)
        for (const TaskShare &t : displaced)
            membership_->taskRemoved(id_, t.workload);
    return displaced;
}

bool
Server::degrade(double speed_factor)
{
    if (state_ == ServerState::Down)
        return false;
    // Clamp into [0, 1): 0 models a fully stalled machine (failing
    // controller, thermal shutdown-in-progress) that still holds its
    // shares; NaN and negative inputs stall rather than corrupt.
    if (!(speed_factor >= 0.0))
        speed_factor = 0.0;
    speed_factor = std::min(speed_factor, std::nextafter(1.0, 0.0));
    bumpVersion();
    state_ = ServerState::Degraded;
    speed_factor_ = speed_factor;
    return true;
}

void
Server::recover()
{
    bumpVersion();
    state_ = ServerState::Up;
    speed_factor_ = 1.0;
}

bool
Server::checkInvariants() const
{
    if (coresAllocated() > platform_.cores)
        return false;
    if (memoryAllocated() > platform_.memory_gb + 1e-6)
        return false;
    if (storageAllocated() > platform_.storage_gb + 1e-6)
        return false;
    if (state_ == ServerState::Down && !tasks_.empty())
        return false;
    // Fully stalled (speed 0) is legal only in the degraded state.
    if (speed_factor_ < 0.0 || speed_factor_ > 1.0)
        return false;
    if (state_ != ServerState::Degraded && speed_factor_ != 1.0)
        return false;
    for (size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].workload == kInvalidWorkload)
            return false;
        if (tasks_[i].cores_used > double(tasks_[i].cores) + 1e-9)
            return false;
        if (tasks_[i].socket < 0 || tasks_[i].socket >= num_sockets_)
            return false;
        for (size_t j = i + 1; j < tasks_.size(); ++j)
            if (tasks_[i].workload == tasks_[j].workload)
                return false;
    }
    return true;
}

void
Server::place(const TaskShare &share)
{
    assert(share.workload != kInvalidWorkload);
    assert(!hosts(share.workload));
    assert(share.socket >= 0 && share.socket < num_sockets_);
    assert(canFit(share.cores, share.memory_gb, share.storage_gb));
    bumpVersion();
    tasks_.push_back(share);
    if (membership_)
        membership_->taskPlaced(id_, share.workload);
}

bool
Server::remove(WorkloadId w)
{
    auto it = std::find_if(tasks_.begin(), tasks_.end(),
                           [w](const TaskShare &t) {
                               return t.workload == w;
                           });
    if (it == tasks_.end())
        return false;
    bumpVersion();
    tasks_.erase(it);
    if (membership_)
        membership_->taskRemoved(id_, w);
    return true;
}

bool
Server::hosts(WorkloadId w) const
{
    return share(w) != nullptr;
}

bool
Server::resize(WorkloadId w, int cores, double memory_gb)
{
    TaskShare *t = findShare(w);
    if (!t)
        return false;
    int extra_cores = cores - t->cores;
    double extra_mem = memory_gb - t->memory_gb;
    if (extra_cores > coresFree() || extra_mem > memoryFree() + 1e-9)
        return false;
    bumpVersion();
    // Scale caused pressure with the new core share.
    if (t->cores > 0) {
        double ratio = double(cores) / double(t->cores);
        t->caused = interference::scale(t->caused, ratio);
    }
    t->cores = cores;
    t->memory_gb = memory_gb;
    // A shrink caps what the task can physically consume; the stale
    // measurement from before the resize must not report usage above
    // the new limit (the next monitoring tick re-measures anyway).
    if (t->cores_used > double(cores))
        t->cores_used = double(cores);
    return true;
}

const TaskShare *
Server::share(WorkloadId w) const
{
    for (const TaskShare &t : tasks_)
        if (t.workload == w)
            return &t;
    return nullptr;
}

TaskShare *
Server::findShare(WorkloadId w)
{
    // Mutable-reference escape hatch: every caller that writes through
    // the returned share bumps. quasar-lint: allow(mutation-journaling)
    for (TaskShare &t : tasks_)
        if (t.workload == w)
            return &t;
    return nullptr;
}

int
Server::coresAllocated() const
{
    int n = 0;
    for (const TaskShare &t : tasks_)
        n += t.cores;
    return n;
}

double
Server::memoryAllocated() const
{
    double m = 0.0;
    for (const TaskShare &t : tasks_)
        m += t.memory_gb;
    return m;
}

double
Server::storageAllocated() const
{
    double s = 0.0;
    for (const TaskShare &t : tasks_)
        s += t.storage_gb;
    return s;
}

IVector
Server::rawPressureExcluding(WorkloadId w) const
{
    IVector total = injected_[0];
    for (int s = 1; s < num_sockets_; ++s)
        for (size_t i = 0; i < kNumSources; ++i)
            total[i] += injected_[size_t(s)][i];
    for (const TaskShare &t : tasks_) {
        if (t.workload == w)
            continue;
        for (size_t i = 0; i < kNumSources; ++i) {
            // Pressure inside a private partition stays there.
            if (t.isolation[i] == 0.0)
                total[i] += t.caused[i];
        }
    }
    return total;
}

void
Server::localPressureExcluding(
    WorkloadId w,
    std::array<IVector, topology::kMaxSockets> &local) const
{
    for (int s = 0; s < num_sockets_; ++s)
        local[size_t(s)] = injected_[size_t(s)];
    for (const TaskShare &t : tasks_) {
        if (t.workload == w)
            continue;
        IVector &home = local[size_t(t.socket)];
        for (size_t i = 0; i < kNumSources; ++i) {
            // Pressure inside a private partition stays there. The
            // mask holds exact sentinels (0.0/1.0 assigned verbatim),
            // never arithmetic. quasar-lint: allow(decision-purity)
            if (t.isolation[i] == 0.0)
                home[i] += t.caused[i];
        }
    }
}

IVector
Server::viewFromLocal(
    const std::array<IVector, topology::kMaxSockets> &local,
    int socket) const
{
    IVector raw = local[size_t(socket)];
    for (int s = 0; s < num_sockets_; ++s) {
        if (s == socket)
            continue;
        for (size_t i = 0; i < kNumSources; ++i)
            raw[i] += cross_[i] * local[size_t(s)][i];
    }
    return raw;
}

IVector
Server::normalizeAt(const IVector &raw, int socket,
                    const TaskShare *self) const
{
    const IVector &caps = socket_caps_[size_t(socket)];
    IVector out;
    for (size_t i = 0; i < kNumSources; ++i) {
        // An isolated source is contention-free for this task. Exact
        // sentinel compare, same as localPressureExcluding.
        // quasar-lint: allow(decision-purity)
        if (self && self->isolation[i] != 0.0) {
            out[i] = 0.0;
            continue;
        }
        double cap = caps[i];
        out[i] = cap > 0.0 ? raw[i] / cap : 0.0;
    }
    return out;
}

IVector
Server::contentionFor(WorkloadId w) const
{
    const TaskShare *self = share(w);
    int socket = self ? self->socket : 0;
    std::array<IVector, topology::kMaxSockets> local{};
    localPressureExcluding(w, local);
    return normalizeAt(viewFromLocal(local, socket), socket, self);
}

IVector
Server::contentionForNewcomer() const
{
    return contentionFor(kInvalidWorkload);
}

IVector
Server::contentionForNewcomerAt(int socket) const
{
    assert(socket >= 0 && socket < num_sockets_);
    std::array<IVector, topology::kMaxSockets> local{};
    localPressureExcluding(kInvalidWorkload, local);
    return normalizeAt(viewFromLocal(local, socket), socket, nullptr);
}

Server::SocketSnapshot
Server::socketSnapshot() const
{
    SocketSnapshot snap;
    snap.sockets = num_sockets_;
    std::array<IVector, topology::kMaxSockets> local{};
    localPressureExcluding(kInvalidWorkload, local);
    for (int s = 0; s < num_sockets_; ++s)
        snap.contention[size_t(s)] =
            normalizeAt(viewFromLocal(local, s), s, nullptr);
    for (const TaskShare &t : tasks_)
        snap.cores_homed[size_t(t.socket)] += t.cores;
    return snap;
}

IVector
Server::freshSocketPressure(int socket) const
{
    std::array<IVector, topology::kMaxSockets> local{};
    localPressureExcluding(kInvalidWorkload, local);
    return local[size_t(socket)];
}

IVector
Server::rawPressure() const
{
    return rawPressureExcluding(kInvalidWorkload);
}

void
Server::injectPressureAt(int socket, const IVector &normalized)
{
    assert(socket >= 0 && socket < num_sockets_);
    bumpVersion();
    const IVector &caps = socket_caps_[size_t(socket)];
    for (size_t i = 0; i < kNumSources; ++i)
        injected_[size_t(socket)][i] += normalized[i] * caps[i];
}

void
Server::clearInjectedPressure()
{
    bumpVersion();
    for (IVector &v : injected_)
        v = interference::zeroVector();
}

bool
Server::setIsolation(WorkloadId w, interference::Source source,
                     bool isolated)
{
    TaskShare *t = findShare(w);
    if (!t)
        return false;
    bumpVersion();
    t->isolation[static_cast<size_t>(source)] = isolated ? 1.0 : 0.0;
    return true;
}

bool
Server::setUsage(WorkloadId w, double cores_used)
{
    TaskShare *t = findShare(w);
    if (!t)
        return false;
    t->cores_used = std::clamp(cores_used, 0.0, double(t->cores));
    return true;
}

double
Server::cpuUtilization() const
{
    double used = 0.0;
    for (const TaskShare &t : tasks_)
        used += t.cores_used;
    return platform_.cores > 0 ? used / double(platform_.cores) : 0.0;
}

double
Server::cpuReservedFraction() const
{
    return platform_.cores > 0
               ? double(coresAllocated()) / double(platform_.cores)
               : 0.0;
}

} // namespace quasar::sim
