#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include <op2/plan.hpp>

using namespace op2;

namespace {

/// Build a ring mesh: n edges over n nodes, edge e -> nodes (e, e+1 mod n).
struct ring {
    op_set edges;
    op_set nodes;
    op_map em;
    op_dat nd;

    explicit ring(std::size_t n)
      : edges(op_decl_set(n, "edges")), nodes(op_decl_set(n, "nodes")) {
        std::vector<int> tab(2 * n);
        for (std::size_t e = 0; e < n; ++e) {
            tab[2 * e] = static_cast<int>(e);
            tab[2 * e + 1] = static_cast<int>((e + 1) % n);
        }
        em = op_decl_map(edges, nodes, 2, tab, "em");
        nd = op_decl_dat_zero<double>(nodes, 1, "double", "nd");
    }

    [[nodiscard]] std::array<op_arg, 2> inc_args() {
        return {op_arg_dat(nd, 0, em, 1, "double", OP_INC),
                op_arg_dat(nd, 1, em, 1, "double", OP_INC)};
    }
};

/// No two same-colour blocks may touch the same target element.
void assert_coloring_valid(op_plan const& plan, op_map const& m,
                           std::vector<int> const& idxs) {
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        std::set<int> seen_by_other_blocks;
        for (std::size_t b : plan.blocks_of_color(c)) {
            std::set<int> mine;
            for (std::size_t e = plan.offset[b];
                 e < plan.offset[b] + plan.nelems[b]; ++e) {
                for (int idx : idxs) {
                    mine.insert(m(e, idx));
                }
            }
            for (int t : mine) {
                ASSERT_EQ(seen_by_other_blocks.count(t), 0u)
                    << "colour " << c << " reuses target " << t;
            }
            seen_by_other_blocks.insert(mine.begin(), mine.end());
        }
    }
}

TEST(Plan, BlockStructureCoversSet) {
    ring r(1000);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 128);
    EXPECT_EQ(plan.set_size, 1000u);
    EXPECT_EQ(plan.nblocks, 8u);  // ceil(1000/128)
    std::size_t covered = 0;
    for (std::size_t b = 0; b < plan.nblocks; ++b) {
        covered += plan.nelems[b];
        if (b > 0) {
            EXPECT_EQ(plan.offset[b], plan.offset[b - 1] + plan.nelems[b - 1]);
        }
    }
    EXPECT_EQ(covered, 1000u);
    EXPECT_EQ(plan.nelems.back(), 1000u - 7u * 128u);
}

TEST(Plan, DirectLoopSingleColor) {
    ring r(500);
    auto d = op_decl_dat_zero<double>(r.edges, 1, "double", "ed");
    std::array<op_arg, 1> args{op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW)};
    auto plan = plan_build(r.edges, args, 64);
    EXPECT_FALSE(plan.colored);
    EXPECT_EQ(plan.ncolors, 1u);
    EXPECT_EQ(plan.blocks_of_color(0).size(), plan.nblocks);
}

TEST(Plan, IndirectReadDoesNotColor) {
    ring r(300);
    std::array<op_arg, 1> args{op_arg_dat(r.nd, 0, r.em, 1, "double", OP_READ)};
    auto plan = plan_build(r.edges, args, 32);
    EXPECT_FALSE(plan.colored);
    EXPECT_EQ(plan.ncolors, 1u);
}

TEST(Plan, RingColoringIsConflictFree) {
    ring r(1024);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 64);
    EXPECT_TRUE(plan.colored);
    EXPECT_GE(plan.ncolors, 2u);
    assert_coloring_valid(plan, r.em, {0, 1});
}

TEST(Plan, AllBlocksAppearExactlyOnceInBlkmap) {
    ring r(777);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 50);
    std::vector<bool> seen(plan.nblocks, false);
    for (std::size_t b : plan.blkmap) {
        ASSERT_LT(b, plan.nblocks);
        ASSERT_FALSE(seen[b]);
        seen[b] = true;
    }
    EXPECT_EQ(plan.color_offset.front(), 0u);
    EXPECT_EQ(plan.color_offset.back(), plan.nblocks);
}

TEST(Plan, SingleBlockNeedsNoColoring) {
    ring r(40);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 1000);  // one block holds all
    EXPECT_EQ(plan.nblocks, 1u);
    EXPECT_EQ(plan.ncolors, 1u);
}

TEST(Plan, PartSizeOneMaximallyFine) {
    ring r(16);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 1);
    EXPECT_EQ(plan.nblocks, 16u);
    assert_coloring_valid(plan, r.em, {0, 1});
    // Adjacent ring edges share nodes: needs at least 2 colours.
    EXPECT_GE(plan.ncolors, 2u);
}

TEST(Plan, ZeroPartSizeDefaults) {
    ring r(256);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 0);
    EXPECT_EQ(plan.part_size, 128u);
}

TEST(Plan, EmptySet) {
    auto s = op_decl_set(0, "empty");
    std::array<op_arg, 0> args{};
    auto plan = plan_build(s, {args.data(), 0}, 64);
    EXPECT_EQ(plan.nblocks, 0u);
    EXPECT_EQ(plan.ncolors, 0u);
}

TEST(PlanCache, ReusesEquivalentPlans) {
    plan_cache_clear();
    ring r(512);
    auto args = r.inc_args();
    auto const& p1 = plan_get(r.edges, args, 64);
    auto const& p2 = plan_get(r.edges, args, 64);
    EXPECT_EQ(&p1, &p2);
    EXPECT_EQ(plan_cache_size(), 1u);
    auto const& p3 = plan_get(r.edges, args, 128);
    EXPECT_NE(&p1, &p3);
    EXPECT_EQ(plan_cache_size(), 2u);
    plan_cache_clear();
    EXPECT_EQ(plan_cache_size(), 0u);
}

// Property sweep: colouring is conflict-free for many (n, part) combos.
class PlanColoringSweep
  : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PlanColoringSweep, ConflictFree) {
    auto [n, part] = GetParam();
    ring r(n);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, part);
    assert_coloring_valid(plan, r.em, {0, 1});
    std::size_t covered = 0;
    for (std::size_t b = 0; b < plan.nblocks; ++b) {
        covered += plan.nelems[b];
    }
    EXPECT_EQ(covered, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PlanColoringSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{8, 2},
                      std::pair<std::size_t, std::size_t>{100, 7},
                      std::pair<std::size_t, std::size_t>{128, 16},
                      std::pair<std::size_t, std::size_t>{1000, 33},
                      std::pair<std::size_t, std::size_t>{4096, 128},
                      std::pair<std::size_t, std::size_t>{5000, 512}));

// --- partition-granular plans ------------------------------------------

TEST(PlanPartition, PartitionPlansTileTheSet) {
    ring r(1000);
    auto args = r.inc_args();
    std::size_t covered = 0;
    std::size_t expect_base = 0;
    for (std::size_t p = 0; p < 3; ++p) {
        auto plan = plan_build(r.edges, args, plan_desc{64, 3, p});
        EXPECT_EQ(plan.npartitions, 3u);
        EXPECT_EQ(plan.partition, p);
        EXPECT_EQ(plan.elem_base, expect_base);
        expect_base += plan.set_size;
        covered += plan.set_size;
        // Blocks tile the partition's local index space [0, set_size).
        std::size_t local = 0;
        for (std::size_t b = 0; b < plan.nblocks; ++b) {
            EXPECT_EQ(plan.offset[b], local);
            local += plan.nelems[b];
        }
        EXPECT_EQ(local, plan.set_size);
    }
    EXPECT_EQ(covered, 1000u);
}

TEST(PlanPartition, PartitionStageTablesAreRelativeWithAbsoluteOffsets) {
    ring r(900);
    auto args = r.inc_args();
    std::size_t const stride = sizeof(double);
    for (std::size_t p = 0; p < 4; ++p) {
        auto plan = plan_build(r.edges, args, plan_desc{64, 4, p});
        for (int idx : {0, 1}) {
            auto const* st = plan.find_stage(r.em.id(), idx, stride);
            ASSERT_NE(st, nullptr);
            ASSERT_EQ(st->off.size(), plan.set_size);
            for (std::size_t e = 0; e < plan.set_size; ++e) {
                EXPECT_EQ(st->off[e],
                          static_cast<std::size_t>(
                              r.em(plan.elem_base + e, idx)) *
                              stride);
            }
        }
    }
}

TEST(PlanPartition, FootprintsMatchMapReachabilityExactly) {
    ring r(777);
    auto args = r.inc_args();
    constexpr std::size_t kParts = 5;
    auto tpart = r.nodes.partition(kParts);
    for (std::size_t p = 0; p < kParts; ++p) {
        auto plan = plan_build(r.edges, args, plan_desc{32, kParts, p});
        for (int idx : {0, 1}) {
            auto const* fp = plan.find_footprint(r.em.id(), idx);
            ASSERT_NE(fp, nullptr);
            // Brute-force reachability over the partition's elements.
            std::set<std::uint32_t> expect;
            for (std::size_t e = plan.elem_base;
                 e < plan.elem_base + plan.set_size; ++e) {
                expect.insert(static_cast<std::uint32_t>(tpart->find(
                    static_cast<std::size_t>(r.em(e, idx)))));
            }
            std::set<std::uint32_t> got(fp->parts.begin(), fp->parts.end());
            EXPECT_EQ(got, expect) << "partition " << p << " slot " << idx;
        }
    }
}

/// Partition plans are coloured *globally*: no two same-coloured blocks
/// may touch the same target element even when they belong to different
/// partition plans of the configuration. This is the invariant behind
/// the dataflow backend's same-colour non-conflict exemption, so it is
/// pinned independently of any scheduler behaviour. Sizes chosen so
/// partitions straddle the ring's wrap-around edge and have uneven
/// block counts.
TEST(PlanPartition, ColoringIsConflictFreeAcrossPartitions) {
    for (auto [n, part_size, nparts] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{1000, 64, 3},
          {1000, 500, 2},
          {777, 32, 5},
          {128, 128, 4}}) {
        ring r(n);
        auto args = r.inc_args();

        // (colour -> targets) across every partition's blocks.
        std::map<std::size_t, std::set<int>> targets_by_color;
        for (std::size_t p = 0; p < nparts; ++p) {
            auto plan = plan_build(r.edges, args,
                                   plan_desc{part_size, nparts, p});
            for (std::size_t c = 0; c < plan.ncolors; ++c) {
                for (std::size_t b : plan.blocks_of_color(c)) {
                    std::set<int> mine;
                    for (std::size_t e = plan.elem_base + plan.offset[b];
                         e < plan.elem_base + plan.offset[b] + plan.nelems[b];
                         ++e) {
                        mine.insert(r.em(e, 0));
                        mine.insert(r.em(e, 1));
                    }
                    auto& claimed = targets_by_color[c];
                    for (int t : mine) {
                        ASSERT_EQ(claimed.count(t), 0u)
                            << "colour " << c << " reused target " << t
                            << " across partitions (n=" << n
                            << " part_size=" << part_size
                            << " nparts=" << nparts << ")";
                    }
                    claimed.insert(mine.begin(), mine.end());
                }
            }
        }
    }
}

/// A partition holding a single block still takes the global colouring
/// path: two boundary-straddling single-block partitions must not both
/// claim colour 0 (locally each is trivially colour 0 — globally they
/// conflict through the shared boundary node).
TEST(PlanPartition, SingleBlockPartitionsAreColoredGlobally) {
    ring r(1000);
    auto args = r.inc_args();
    std::set<int> colors;
    for (std::size_t p = 0; p < 2; ++p) {
        auto plan = plan_build(r.edges, args, plan_desc{500, 2, p});
        ASSERT_EQ(plan.nblocks, 1u);
        EXPECT_TRUE(plan.colored);
        // The block's colour is ncolors - 1 (the only non-empty class).
        std::size_t c = plan.ncolors;
        ASSERT_GT(c, 0u);
        colors.insert(static_cast<int>(c - 1));
    }
    // Both partitions touch the wrap-around node 0 and the boundary node
    // 500 — same colour would mean a same-colour conflict.
    EXPECT_EQ(colors.size(), 2u);
}

TEST(PlanPartition, WholeSetPlansCarryNoFootprints) {
    ring r(300);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, plan_desc{32, 1, 0});
    EXPECT_TRUE(plan.footprints.empty());
}

// --- plan-cache key audit (regression: every plan-affecting
// loop_options field must key the cache) ---------------------------------

TEST(PlanCache, KeyIncludesEveryPlanAffectingField) {
    plan_cache_clear();
    ring r(512);
    auto args = r.inc_args();

    auto const& base = plan_get(r.edges, args, plan_desc{64, 1, 0});
    EXPECT_FALSE(base.stages.empty());

    // Partition granularity and partition index each key separately.
    auto const& part0 = plan_get(r.edges, args, plan_desc{64, 2, 0});
    auto const& part1 = plan_get(r.edges, args, plan_desc{64, 2, 1});
    EXPECT_NE(&base, &part0);
    EXPECT_NE(&part0, &part1);
    EXPECT_EQ(part0.elem_base, 0u);
    EXPECT_EQ(part1.elem_base, 256u);

    // part_size still keys (pre-existing behaviour).
    auto const& coarse = plan_get(r.edges, args, plan_desc{128, 1, 0});
    EXPECT_NE(&base, &coarse);

    EXPECT_EQ(plan_cache_size(), 4u);

    // Identical descriptors hit the same entries, in any order.
    EXPECT_EQ(&plan_get(r.edges, args, plan_desc{64, 2, 1}), &part1);
    EXPECT_EQ(&plan_get(r.edges, args, plan_desc{64, 1, 0}), &base);
    EXPECT_EQ(plan_cache_size(), 4u);
    plan_cache_clear();
}

TEST(PlanCache, ClearInvalidatesPerWorkerShards) {
    plan_cache_clear();
    ring r(256);
    auto args = r.inc_args();
    auto const& p1 = plan_get(r.edges, args, 64);
    plan_cache_clear();
    EXPECT_EQ(plan_cache_size(), 0u);
    // The per-worker pointer shard must not serve the freed plan: a
    // fresh lookup rebuilds and re-caches.
    auto const& p2 = plan_get(r.edges, args, 64);
    (void)p1;
    EXPECT_EQ(plan_cache_size(), 1u);
    EXPECT_EQ(p2.set_size, 256u);
    plan_cache_clear();
}

}  // namespace
