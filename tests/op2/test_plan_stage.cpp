// Tests for the staged-execution plan extensions: per-element gather
// tables, the single-pass block-conflict colouring and the sharded
// unordered plan cache (including the part_size == 0 key normalisation
// regression).

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include <op2/op2.hpp>

using namespace op2;

namespace {

struct random_mesh {
    op_set edges;
    op_set cells;
    op_map em;
    op_dat cd;  // dim-1 cell dat
    op_dat cq;  // dim-4 cell dat

    random_mesh(std::size_t nedges, std::size_t ncells, unsigned seed) {
        edges = op_decl_set(nedges, "edges");
        cells = op_decl_set(ncells, "cells");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cd_(0,
                                               static_cast<int>(ncells) - 1);
        std::vector<int> tab(2 * nedges);
        for (auto& v : tab) {
            v = cd_(rng);
        }
        em = op_decl_map(edges, cells, 2, tab, "em");
        cd = op_decl_dat_zero<double>(cells, 1, "double", "cd");
        cq = op_decl_dat_zero<double>(cells, 4, "double", "cq");
    }

    [[nodiscard]] std::array<op_arg, 3> mixed_args() {
        return {op_arg_dat(cq, 0, em, 4, "double", OP_READ),
                op_arg_dat(cd, 0, em, 1, "double", OP_INC),
                op_arg_dat(cd, 1, em, 1, "double", OP_INC)};
    }
};

/// No two blocks of the same colour may touch one target element through
/// any mutating indirect reference.
void assert_conflict_free(op_plan const& plan, op_map const& m,
                          std::vector<int> const& slots) {
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        std::set<int> claimed;
        for (std::size_t blk : plan.blocks_of_color(c)) {
            std::set<int> mine;
            for (std::size_t e = plan.offset[blk];
                 e < plan.offset[blk] + plan.nelems[blk]; ++e) {
                for (int s : slots) {
                    mine.insert(m(e, s));
                }
            }
            for (int t : mine) {
                ASSERT_TRUE(claimed.insert(t).second)
                    << "colour " << c << " touches target " << t
                    << " from two blocks";
            }
        }
    }
}

TEST(PlanStage, GatherTablesMatchMapArithmetic) {
    random_mesh m(500, 120, 7u);
    auto args = m.mixed_args();
    auto plan = plan_build(m.edges, args, 64);

    // Two distinct argument classes: (em, 0, 32 bytes) for cq and
    // (em, 0, 8) + (em, 1, 8) for cd.
    ASSERT_EQ(plan.stages.size(), 3u);
    for (auto const& a : args) {
        std::size_t const stride =
            a.dat.elem_bytes() * static_cast<std::size_t>(a.dat.dim());
        auto const* st = plan.find_stage(a.map.id(), a.idx, stride);
        ASSERT_NE(st, nullptr);
        ASSERT_EQ(st->off.size(), m.edges.size());
        for (std::size_t e = 0; e < m.edges.size(); ++e) {
            EXPECT_EQ(st->off[e],
                      static_cast<std::size_t>(m.em(e, a.idx)) * stride);
        }
    }
    EXPECT_EQ(plan.find_stage(m.em.id(), 0, 12345), nullptr);
}

TEST(PlanStage, SinglePassColoringIsConflictFree) {
    for (unsigned seed : {1u, 2u, 3u, 4u}) {
        random_mesh m(1200, 90, seed);
        auto args = m.mixed_args();
        auto plan = plan_build(m.edges, args, 32);
        ASSERT_TRUE(plan.colored);
        assert_conflict_free(plan, m.em, {0, 1});

        // blkmap must be a permutation of all blocks.
        std::set<std::size_t> seen(plan.blkmap.begin(), plan.blkmap.end());
        EXPECT_EQ(seen.size(), plan.nblocks);
        EXPECT_EQ(plan.color_offset.front(), 0u);
        EXPECT_EQ(plan.color_offset.back(), plan.nblocks);
        // Every colour class is non-empty.
        for (std::size_t c = 0; c < plan.ncolors; ++c) {
            EXPECT_GT(plan.blocks_of_color(c).size(), 0u) << "colour " << c;
        }
    }
}

TEST(PlanStage, ColoringSurvivesMoreThan64Colors) {
    // Every edge hits cell 0, so every block conflicts with every other:
    // the plan needs one colour per block, which exercises the multi-
    // sweep (>64 colours) path of the bitmask colouring.
    auto edges = op_decl_set(300, "edges");
    auto cells = op_decl_set(4, "cells");
    std::vector<int> tab(2 * 300, 0);
    for (std::size_t e = 0; e < 300; ++e) {
        tab[2 * e + 1] = 1;
    }
    auto em = op_decl_map(edges, cells, 2, tab, "em");
    auto cd = op_decl_dat_zero<double>(cells, 1, "double", "cd");
    std::array<op_arg, 2> args{op_arg_dat(cd, 0, em, 1, "double", OP_INC),
                               op_arg_dat(cd, 1, em, 1, "double", OP_INC)};
    auto plan = plan_build(edges, args, 2);  // 150 blocks
    ASSERT_EQ(plan.nblocks, 150u);
    EXPECT_EQ(plan.ncolors, 150u);
    assert_conflict_free(plan, em, {0, 1});
}

TEST(PlanStage, CacheNormalizesDefaultPartSize) {
    random_mesh m(400, 80, 11u);
    auto args = m.mixed_args();
    plan_cache_clear();
    auto const& p0 = plan_get(m.edges, args, 0);
    auto const& p128 = plan_get(m.edges, args, default_part_size);
    // Regression: part_size 0 used to be keyed raw, caching the same
    // configuration twice.
    EXPECT_EQ(plan_cache_size(), 1u);
    EXPECT_EQ(&p0, &p128);
    EXPECT_EQ(p0.part_size, default_part_size);

    auto const& p64 = plan_get(m.edges, args, 64);
    EXPECT_EQ(plan_cache_size(), 2u);
    EXPECT_NE(&p0, &p64);
    plan_cache_clear();
}

TEST(PlanStage, CacheKeysIncludeIndirectArgumentClasses) {
    random_mesh m(400, 80, 13u);
    plan_cache_clear();
    // Same set + part size, but different indirect argument classes
    // (stride 8 vs stride 32) need different staging tables.
    std::array<op_arg, 2> thin{op_arg_dat(m.cd, 0, m.em, 1, "double", OP_INC),
                               op_arg_dat(m.cd, 1, m.em, 1, "double", OP_INC)};
    std::array<op_arg, 2> wide{op_arg_dat(m.cq, 0, m.em, 4, "double", OP_INC),
                               op_arg_dat(m.cq, 1, m.em, 4, "double", OP_INC)};
    (void)plan_get(m.edges, thin, 64);
    (void)plan_get(m.edges, wide, 64);
    EXPECT_EQ(plan_cache_size(), 2u);
    plan_cache_clear();
}

TEST(PlanStage, ConcurrentLookupsShareOnePlan) {
    random_mesh m(800, 100, 17u);
    auto args = m.mixed_args();
    plan_cache_clear();
    constexpr int kThreads = 8;
    std::vector<op_plan const*> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Mix of raw-0 and normalised lookups from every thread.
            auto const& p =
                plan_get(m.edges, args, t % 2 == 0 ? 0 : default_part_size);
            seen[static_cast<std::size_t>(t)] = &p;
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(plan_cache_size(), 1u);
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    }
    plan_cache_clear();
}

}  // namespace
