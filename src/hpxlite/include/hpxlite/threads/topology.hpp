#pragma once

// CPU/NUMA topology probe. One read-only snapshot per process, taken
// on first use:
//
//  * on Linux the node map is parsed from
//    /sys/devices/system/node/node*/cpulist (no library needed);
//  * anywhere else (or when that probe fails) the topology degrades to
//    a single node with an identity core order, which reproduces the
//    pre-topology `i % hardware_concurrency` binding exactly.
//
// Consumer: thread_pool::bind_worker picks worker i's core node-major
// (fill one node's cores before spilling to the next, so a partition's
// owner and its neighbours share a memory controller).

#include <cstddef>
#include <vector>

namespace hpxlite::threads {

struct topology_info {
    /// Number of NUMA nodes (>= 1).
    std::size_t nodes = 1;
    /// cpu id -> node id, sized by the probed CPU count.
    std::vector<int> core_node;
    /// CPU ids grouped node-major: all of node 0's cpus (ascending),
    /// then node 1's, ... Worker i binds to node_major[i % cpus()].
    std::vector<int> node_major;

    [[nodiscard]] std::size_t cpus() const noexcept {
        return core_node.size();
    }
    [[nodiscard]] int node_of(std::size_t cpu) const noexcept {
        return cpu < core_node.size() ? core_node[cpu] : 0;
    }
};

/// The process's topology snapshot (probed once, immutable, safe to
/// read concurrently).
[[nodiscard]] topology_info const& topology();

}  // namespace hpxlite::threads
