#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

// --- colour slices ------------------------------------------------------

/// Cases chosen so slices straddle the ring's wrap-around edge, colours
/// have uneven block counts, and some colours have fewer blocks than
/// slices: (n, part_size, nparts).
constexpr std::tuple<std::size_t, std::size_t, std::size_t> kSliceCases[] = {
    {1000, 64, 3}, {1000, 500, 2}, {777, 32, 5}, {128, 128, 4}, {900, 16, 8}};

/// Every colour class is cut into `nparts` runs, colour-major: slice
/// s = c * nparts + k holds blocks of colour c only, every block of
/// every colour lands in exactly one slice, and the runs of one colour
/// differ in size by at most one block.
TEST(PlanSlices, SlicesTileEveryColourClassOnce) {
    for (auto [n, part_size, nparts] : kSliceCases) {
        ring r(n);
        auto args = r.inc_args();
        auto plan = plan_build(r.edges, args, part_size);
        auto const& sl = plan_slices(plan, r.edges, args, nparts);
        ASSERT_EQ(sl.nparts, nparts);
        ASSERT_EQ(sl.nslices(), plan.ncolors * nparts);
        std::vector<int> seen(plan.nblocks, 0);
        for (std::size_t c = 0; c < plan.ncolors; ++c) {
            std::set<std::size_t> colour(plan.blocks_of_color(c).begin(),
                                         plan.blocks_of_color(c).end());
            std::size_t lo = SIZE_MAX;
            std::size_t hi = 0;
            for (std::size_t k = 0; k < nparts; ++k) {
                auto const blocks = plan.blocks_of_slice(sl, c * nparts + k);
                lo = std::min(lo, blocks.size());
                hi = std::max(hi, blocks.size());
                for (std::size_t b : blocks) {
                    EXPECT_EQ(colour.count(b), 1u)
                        << "slice " << k << " of colour " << c
                        << " holds block " << b << " of another colour";
                    ++seen[b];
                }
            }
            EXPECT_LE(hi - lo, 1u) << "colour " << c << " (n=" << n
                                   << " nparts=" << nparts << ")";
        }
        for (std::size_t b = 0; b < plan.nblocks; ++b) {
            EXPECT_EQ(seen[b], 1) << "block " << b << " (n=" << n
                                  << " nparts=" << nparts << ")";
        }
    }
}

/// Direct and indirect slice footprints equal brute-force reachability:
/// the iteration partitions a slice's elements fall in, and the target
/// partitions its map rows reach through each slot.
TEST(PlanSlices, FootprintsMatchMapReachabilityExactly) {
    for (auto [n, part_size, nparts] : kSliceCases) {
        ring r(n);
        auto args = r.inc_args();
        auto plan = plan_build(r.edges, args, part_size);
        auto const& sl = plan_slices(plan, r.edges, args, nparts);
        auto const ipart = r.edges.partition(nparts);
        auto const tpart = r.nodes.partition(nparts);
        for (std::size_t s = 0; s < sl.nslices(); ++s) {
            std::set<std::uint32_t> direct;
            std::map<int, std::set<std::uint32_t>> reach;
            for (std::size_t b : plan.blocks_of_slice(sl, s)) {
                for (std::size_t e = plan.offset[b];
                     e < plan.offset[b] + plan.nelems[b]; ++e) {
                    direct.insert(
                        static_cast<std::uint32_t>(ipart->find(e)));
                    for (int idx : {0, 1}) {
                        reach[idx].insert(static_cast<std::uint32_t>(
                            tpart->find(static_cast<std::size_t>(
                                r.em(e, idx)))));
                    }
                }
            }
            auto const d = sl.direct.of(s);
            EXPECT_EQ(std::set<std::uint32_t>(d.begin(), d.end()), direct)
                << "slice " << s << " (n=" << n << " nparts=" << nparts
                << ")";
            EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
            for (int idx : {0, 1}) {
                auto const* fp = sl.find(r.em.id(), idx);
                ASSERT_NE(fp, nullptr);
                auto const got = fp->of(s);
                EXPECT_EQ(std::set<std::uint32_t>(got.begin(), got.end()),
                          reach[idx])
                    << "slice " << s << " slot " << idx << " (n=" << n
                    << " nparts=" << nparts << ")";
                EXPECT_EQ(got.size(), reach[idx].size()) << "duplicates";
            }
        }
    }
}

/// Slices of one colour never touch a common target element, whichever
/// slices the blocks fell into. This is the invariant behind the
/// dataflow backend's same-colour non-conflict exemption, so it is
/// pinned independently of any scheduler behaviour.
TEST(PlanSlices, SameColourSlicesNeverShareATarget) {
    for (auto [n, part_size, nparts] : kSliceCases) {
        ring r(n);
        auto args = r.inc_args();
        auto plan = plan_build(r.edges, args, part_size);
        auto const& sl = plan_slices(plan, r.edges, args, nparts);
        for (std::size_t c = 0; c < plan.ncolors; ++c) {
            std::map<int, std::size_t> owner;  // target -> slice
            for (std::size_t k = 0; k < nparts; ++k) {
                for (std::size_t b : plan.blocks_of_slice(sl, c * nparts + k)) {
                    for (std::size_t e = plan.offset[b];
                         e < plan.offset[b] + plan.nelems[b]; ++e) {
                        for (int idx : {0, 1}) {
                            auto const [it, fresh] = owner.try_emplace(
                                r.em(e, idx), k);
                            ASSERT_TRUE(fresh || it->second == k)
                                << "colour " << c << ": slices "
                                << it->second << " and " << k
                                << " share target " << r.em(e, idx)
                                << " (n=" << n << " part_size=" << part_size
                                << " nparts=" << nparts << ")";
                        }
                    }
                }
            }
        }
    }
}

/// One-block slices of conflicting blocks land in different colours:
/// the two blocks of a 1000-edge ring at part_size 500 share the
/// wrap-around node 0 and the boundary node 500, so they cannot be one
/// colour's two slices — they are two colours' first slices, each
/// colour's second slice empty.
TEST(PlanSlices, ConflictingSingleBlockSlicesGetDifferentColours) {
    ring r(1000);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 500);
    ASSERT_EQ(plan.nblocks, 2u);
    EXPECT_TRUE(plan.colored);
    ASSERT_EQ(plan.ncolors, 2u);
    auto const& sl = plan_slices(plan, r.edges, args, 2);
    std::set<std::size_t> colours;
    for (std::size_t s = 0; s < sl.nslices(); ++s) {
        auto const blocks = plan.blocks_of_slice(sl, s);
        if (s % 2 == 1) {
            EXPECT_TRUE(blocks.empty()) << "slice " << s;
        } else {
            ASSERT_EQ(blocks.size(), 1u) << "slice " << s;
            colours.insert(s / 2);
        }
    }
    EXPECT_EQ(colours.size(), 2u);
}

/// A plan carries no footprints: they live in its slicings, none of
/// which exists until one is asked for; each partition count is built
/// once and then served from the plan.
TEST(PlanPartition, WholeSetPlansCarryNoFootprints) {
    ring r(300);
    auto args = r.inc_args();
    auto plan = plan_build(r.edges, args, 32);
    EXPECT_EQ(plan.slicings->head.load(), nullptr);
    auto const& three = plan_slices(plan, r.edges, args, 3);
    auto const& five = plan_slices(plan, r.edges, args, 5);
    EXPECT_NE(&three, &five);
    EXPECT_EQ(&plan_slices(plan, r.edges, args, 3), &three);
    EXPECT_EQ(&plan_slices(plan, r.edges, args, 5), &five);
    EXPECT_EQ(&plan_slices(plan, r.edges, args, 0),
              &plan_slices(plan, r.edges, args, 1));
}

// --- plan-cache key audit (regression: every plan-affecting input must
// key the cache) ----------------------------------------------------------

TEST(PlanCache, KeyIncludesEveryPlanAffectingField) {
    plan_cache_clear();
    ring r(512);
    auto args = r.inc_args();

    auto const& base = plan_get(r.edges, args, plan_desc{64});
    EXPECT_FALSE(base.stages.empty());

    // part_size keys.
    auto const& coarse = plan_get(r.edges, args, plan_desc{128});
    EXPECT_NE(&base, &coarse);

    // The argument classes key: a read-only use of the same slots needs
    // no colouring, so it must not share the coloured plan.
    std::array<op_arg, 2> const reads{
        op_arg_dat(r.nd, 0, r.em, 1, "double", OP_READ),
        op_arg_dat(r.nd, 1, r.em, 1, "double", OP_READ)};
    auto const& read_plan = plan_get(r.edges, reads, plan_desc{64});
    EXPECT_NE(&base, &read_plan);
    EXPECT_FALSE(read_plan.colored);
    EXPECT_TRUE(base.colored);

    // The set keys: a same-sized ring's plan is its own.
    ring other(512);
    auto other_args = other.inc_args();
    EXPECT_NE(&plan_get(other.edges, other_args, plan_desc{64}), &base);

    EXPECT_EQ(plan_cache_size(), 4u);

    // Identical descriptors hit the same entries, in any order; the
    // partition count is not a plan field (the slicing is per plan).
    EXPECT_EQ(&plan_get(r.edges, reads, plan_desc{64}), &read_plan);
    EXPECT_EQ(&plan_get(r.edges, args, plan_desc{64, true, 4, 1}), &base);
    EXPECT_EQ(&plan_get(r.edges, args, 0), &coarse);
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
