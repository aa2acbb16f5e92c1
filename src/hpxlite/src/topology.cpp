#include <hpxlite/threads/topology.hpp>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace hpxlite::threads {

namespace {

std::size_t probed_cpus() {
    std::size_t n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/// Parse a sysfs cpulist ("0-3,8-11,15") into per-cpu node marks.
/// Returns false on any parse surprise so the caller can fall back.
bool apply_cpulist(std::string const& list, int node,
                   std::vector<int>& core_node) {
    char const* s = list.c_str();
    while (*s != '\0' && *s != '\n') {
        char* end = nullptr;
        long const lo = std::strtol(s, &end, 10);
        if (end == s || lo < 0) {
            return false;
        }
        long hi = lo;
        s = end;
        if (*s == '-') {
            ++s;
            hi = std::strtol(s, &end, 10);
            if (end == s || hi < lo) {
                return false;
            }
            s = end;
        }
        for (long c = lo; c <= hi; ++c) {
            if (static_cast<std::size_t>(c) < core_node.size()) {
                core_node[static_cast<std::size_t>(c)] = node;
            }
        }
        if (*s == ',') {
            ++s;
        }
    }
    return true;
}

/// Linux sysfs probe: needs no library, works in ordinary containers.
/// False when the node directories are absent (non-Linux, restricted
/// /sys) — single-node fallback applies.
bool probe_sysfs(std::vector<int>& core_node) {
    bool any = false;
    for (std::size_t node = 0; node <= core_node.size(); ++node) {
        char path[96];
        std::snprintf(path, sizeof(path),
                      "/sys/devices/system/node/node%zu/cpulist", node);
        std::FILE* f = std::fopen(path, "re");
        if (f == nullptr) {
            break;  // node ids are contiguous; the first gap is the end
        }
        char buf[512];
        std::string list;
        if (std::fgets(buf, sizeof(buf), f) != nullptr) {
            list = buf;
        }
        std::fclose(f);
        if (!apply_cpulist(list, static_cast<int>(node), core_node)) {
            return false;
        }
        any = true;
    }
    return any;
}

topology_info probe() {
    topology_info t;
    t.core_node.assign(probed_cpus(), 0);
    if (!probe_sysfs(t.core_node)) {
        // Single-node identity: node-major order == 0..N-1, which makes
        // every consumer behave exactly like the pre-topology code.
        std::fill(t.core_node.begin(), t.core_node.end(), 0);
    }
    int max_node = 0;
    for (int n : t.core_node) {
        max_node = std::max(max_node, n);
    }
    t.nodes = static_cast<std::size_t>(max_node) + 1;
    t.node_major.resize(t.core_node.size());
    for (std::size_t c = 0; c < t.node_major.size(); ++c) {
        t.node_major[c] = static_cast<int>(c);
    }
    std::stable_sort(t.node_major.begin(), t.node_major.end(),
                     [&](int a, int b) {
                         return t.core_node[static_cast<std::size_t>(a)] <
                                t.core_node[static_cast<std::size_t>(b)];
                     });
    return t;
}

}  // namespace

topology_info const& topology() {
    static topology_info const t = probe();
    return t;
}

}  // namespace hpxlite::threads
