// Tests of the CPU/NUMA topology probe (hpxlite/threads/topology.hpp).
// The probe must produce a usable map on every machine it runs on —
// the sysfs node map or the single-node identity — so these are
// invariant checks, not golden values: a laptop, a NUMA server and a
// restricted container must all pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include <hpxlite/threads/topology.hpp>

using hpxlite::threads::topology;
using hpxlite::threads::topology_info;

namespace {

TEST(Topology, ProbeYieldsAtLeastOneNodeAndCore) {
    topology_info const& t = topology();
    EXPECT_GE(t.nodes, 1u);
    EXPECT_GE(t.cpus(), 1u);
    EXPECT_EQ(t.core_node.size(), t.cpus());
    EXPECT_EQ(t.node_major.size(), t.cpus());
}

TEST(Topology, EveryCoreMapsToAValidNode) {
    topology_info const& t = topology();
    for (std::size_t c = 0; c < t.cpus(); ++c) {
        EXPECT_GE(t.core_node[c], 0);
        EXPECT_LT(static_cast<std::size_t>(t.core_node[c]), t.nodes);
        EXPECT_EQ(t.node_of(c), t.core_node[c]);
    }
    // Out-of-range cpus degrade to node 0 instead of reading off the end.
    EXPECT_EQ(t.node_of(t.cpus() + 100), 0);
}

TEST(Topology, NodeMajorIsAPermutationGroupedByNode) {
    topology_info const& t = topology();
    std::vector<int> sorted = t.node_major;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t c = 0; c < sorted.size(); ++c) {
        EXPECT_EQ(sorted[c], static_cast<int>(c))
            << "node_major must be a permutation of the cpu ids";
    }
    // Grouped: the node sequence along node_major never decreases.
    for (std::size_t i = 1; i < t.node_major.size(); ++i) {
        EXPECT_LE(t.core_node[static_cast<std::size_t>(t.node_major[i - 1])],
                  t.core_node[static_cast<std::size_t>(t.node_major[i])])
            << "node-major order split a node at position " << i;
    }
}

TEST(Topology, SnapshotIsStable) {
    // One immutable snapshot per process: repeat calls return the same
    // object (consumers cache references to it).
    EXPECT_EQ(&topology(), &topology());
}

}  // namespace
