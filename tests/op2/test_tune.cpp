// Unit tests of the online auto-tuner (op2/tune.hpp): ladder shape,
// the deterministic exploration trace (every candidate issued exactly
// once, starting from the psim prior's argmin), measured-argmin
// exploitation, stats accounting, and per-context/per-shape isolation.
// The bitwise differential of tuned vs fixed configurations lives in
// tests/integration/test_autotune_differential.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <op2/context.hpp>
#include <op2/tune.hpp>

using namespace op2;

namespace {

/// Comparable view of a config for set membership checks.
using cfg_pair = std::pair<std::size_t, int>;
cfg_pair key_of(tune::config const& c) {
    return {c.partitions, static_cast<int>(c.placement)};
}

class TuneTest : public ::testing::Test {
protected:
    void SetUp() override { tune::clear(); }
    void TearDown() override { tune::clear(); }
};

TEST(TuneLadder, ShapeFollowsPoolSize) {
    auto const l4 = tune::ladder(4);
    // Partition counts {1, 2, 4, 8}; every multi-partition count carries
    // both placements, the one-partition entry only affinity: 1 + 3*2 = 7.
    ASSERT_EQ(l4.size(), 7u);
    std::size_t one_part = 0;
    std::size_t prev = 0;
    for (auto const& c : l4) {
        EXPECT_GE(c.partitions, prev) << "ladder must be ascending";
        prev = c.partitions;
        if (c.partitions == 1) {
            ++one_part;
            EXPECT_EQ(c.placement, placement_kind::affinity);
        }
    }
    EXPECT_EQ(one_part, 1u)
        << "partitions == 1 runs one sub-node at a time: nothing to place";
    for (std::size_t parts : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
        for (auto pl : {placement_kind::affinity, placement_kind::any}) {
            EXPECT_TRUE(std::any_of(l4.begin(), l4.end(), [&](auto const& c) {
                return c.partitions == parts && c.placement == pl;
            })) << "missing parts=" << parts;
        }
    }

    // pool/2 == 0 and pool == 1 dedupe away: {1, 2} -> 3 entries.
    auto const l1 = tune::ladder(1);
    ASSERT_EQ(l1.size(), 3u);
    EXPECT_EQ(l1[0].partitions, 1u);
    EXPECT_EQ(l1[1].partitions, 2u);
    EXPECT_EQ(l1[2].partitions, 2u);

    // A zero pool is treated as one worker, not an empty ladder.
    EXPECT_EQ(tune::ladder(0).size(), l1.size());
}

TEST(TuneLadder, DeterministicAcrossCalls) {
    auto const a = tune::ladder(6);
    auto const b = tune::ladder(6);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(key_of(a[i]), key_of(b[i]));
    }
}

TEST(TuneDescribe, FormatsConfigs) {
    EXPECT_EQ(tune::describe({1, placement_kind::affinity}), "parts=1");
    EXPECT_EQ(tune::describe({4, placement_kind::affinity}),
              "parts=4 affinity");
    EXPECT_EQ(tune::describe({8, placement_kind::any}), "parts=8 any");
}

TEST_F(TuneTest, ExplorationVisitsEachConfigExactlyOnce) {
    constexpr std::size_t pool = 4;
    auto const lad = tune::ladder(pool);

    // The site's priors are fixed at creation; the first issue must be
    // their argmin — exploration is never blind.
    auto const before = tune::stats("sweep", 4096, pool);
    ASSERT_EQ(before.configs.size(), lad.size());
    EXPECT_TRUE(before.exploring);
    for (auto n : before.issues) {
        EXPECT_EQ(n, 0u);
    }
    std::size_t const prior_best = static_cast<std::size_t>(
        std::min_element(before.prior_s.begin(), before.prior_s.end()) -
        before.prior_s.begin());

    std::set<cfg_pair> visited;
    for (std::size_t i = 0; i < lad.size(); ++i) {
        auto const d = tune::choose("sweep", 4096, pool);
        EXPECT_TRUE(d.exploring) << "issue " << i;
        if (i == 0) {
            EXPECT_EQ(key_of(d.chosen), key_of(before.configs[prior_best]));
            // First consult emits the distinct partition counts for the
            // issue path's plan prewarm.
            std::set<std::size_t> counts;
            for (auto const& c : lad) {
                counts.insert(c.partitions);
            }
            EXPECT_EQ(std::set<std::size_t>(d.prewarm.begin(),
                                            d.prewarm.end()),
                      counts);
        } else {
            EXPECT_TRUE(d.prewarm.empty());
        }
        EXPECT_TRUE(visited.insert(key_of(d.chosen)).second)
            << "config re-issued during exploration";
    }
    EXPECT_EQ(visited.size(), lad.size()) << "ladder not fully visited";

    auto const after = tune::stats("sweep", 4096, pool);
    EXPECT_FALSE(after.exploring);
    for (std::size_t c = 0; c < after.issues.size(); ++c) {
        EXPECT_EQ(after.issues[c], 1u) << "config " << c;
    }
}

TEST_F(TuneTest, ExploitationPicksMeasuredArgminDeterministically) {
    constexpr std::size_t pool = 4;
    auto const lad = tune::ladder(pool);

    // Explore, reporting a synthetic measurement per config: everything
    // slow except parts=2/any.
    tune::config const target{2, placement_kind::any};
    for (std::size_t i = 0; i < lad.size(); ++i) {
        auto const d = tune::choose("measured", 1024, pool);
        tune::report(d.token,
                     key_of(d.chosen) == key_of(target) ? 1e-4 : 1e-2);
    }

    // Exploit: the measured argmin, stable across repeated issues (the
    // choice is a pure function of the accumulated measurements).
    for (int i = 0; i < 5; ++i) {
        auto const d = tune::choose("measured", 1024, pool);
        EXPECT_FALSE(d.exploring);
        EXPECT_EQ(key_of(d.chosen), key_of(target)) << "issue " << i;
    }

    auto const st = tune::stats("measured", 1024, pool);
    ASSERT_LT(st.chosen, st.configs.size());
    EXPECT_EQ(key_of(st.configs[st.chosen]), key_of(target));
    for (std::size_t c = 0; c < st.configs.size(); ++c) {
        EXPECT_EQ(st.runs[c], 1u);
        EXPECT_GT(st.mean_s[c], 0.0);
    }
    // 1 exploration issue everywhere + 5 exploitation issues on target.
    std::uint64_t total = 0;
    for (auto n : st.issues) {
        total += n;
    }
    EXPECT_EQ(total, lad.size() + 5);
}

TEST_F(TuneTest, ReportIgnoresInactiveAndNonpositiveSamples) {
    tune::report(tune::probe{}, 1.0);  // inactive token: no-op, no crash

    auto const d = tune::choose("dropped", 256, 2);
    tune::report(d.token, 0.0);
    tune::report(d.token, -1.0);
    auto const st = tune::stats("dropped", 256, 2);
    for (auto r : st.runs) {
        EXPECT_EQ(r, 0u) << "non-positive samples must not count";
    }
}

TEST_F(TuneTest, ShapeOrPoolChangeStartsFreshExploration) {
    constexpr std::size_t pool = 2;
    auto const lad = tune::ladder(pool);
    for (std::size_t i = 0; i < lad.size(); ++i) {
        (void)tune::choose("reshape", 512, pool);
    }
    EXPECT_FALSE(tune::choose("reshape", 512, pool).exploring);
    // Different set size or pool size => different site, fresh ladder.
    EXPECT_TRUE(tune::choose("reshape", 513, pool).exploring);
    EXPECT_TRUE(tune::choose("reshape", 512, pool + 1).exploring);
}

TEST_F(TuneTest, ContextsIsolateAndPurgeSites) {
    constexpr std::size_t pool = 2;
    auto const lad = tune::ladder(pool);
    auto ctx = make_context("tenant");
    {
        context_scope scope(ctx);
        for (std::size_t i = 0; i < lad.size(); ++i) {
            (void)tune::choose("shared-name", 512, pool);
        }
        EXPECT_FALSE(tune::choose("shared-name", 512, pool).exploring);
    }
    // The default context never saw those issues.
    EXPECT_TRUE(tune::choose("shared-name", 512, pool).exploring);

    // Purging the tenant's context forgets its exploration; the default
    // context's in-progress site survives (still exploring, one issued).
    tune::purge(ctx->id());
    {
        context_scope scope(ctx);
        auto const d = tune::choose("shared-name", 512, pool);
        EXPECT_TRUE(d.exploring);
        EXPECT_FALSE(d.prewarm.empty()) << "purged site must restart";
    }
    auto const st = tune::stats("shared-name", 512, pool);
    std::uint64_t total = 0;
    for (auto n : st.issues) {
        total += n;
    }
    EXPECT_EQ(total, 1u) << "purge leaked across contexts";
}

}  // namespace
