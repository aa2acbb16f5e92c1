// Tests for the memory layer (op2/memory.hpp): the cache-line-aligned
// buffer every dat allocates through.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include <op2/memory.hpp>
#include <op2/op2.hpp>

using namespace op2;
namespace mem = op2::memory;

namespace {

[[nodiscard]] bool aligned64(void const* p) {
    return reinterpret_cast<std::uintptr_t>(p) % mem::cache_line == 0;
}

// --- aligned_buffer -----------------------------------------------------

TEST(AlignedBuffer, BaseAlignedAndCapacityPadded) {
    for (std::size_t n : {1u, 7u, 63u, 64u, 65u, 100u, 4096u, 4097u}) {
        mem::aligned_buffer b(n);
        ASSERT_NE(b.data(), nullptr);
        EXPECT_TRUE(aligned64(b.data())) << "size " << n;
        EXPECT_EQ(b.size(), n);
        EXPECT_EQ(b.capacity() % mem::cache_line, 0u);
        EXPECT_GE(b.capacity(), n);
        EXPECT_LT(b.capacity() - n, mem::cache_line);
    }
}

TEST(AlignedBuffer, EmptyAndMoveSemantics) {
    mem::aligned_buffer e;
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.data(), nullptr);

    mem::aligned_buffer a(128);
    std::byte* const p = a.data();
    std::memset(p, 0x5a, 128);
    mem::aligned_buffer b(std::move(a));
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b.size(), 128u);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd
    EXPECT_EQ(a.data(), nullptr);

    mem::aligned_buffer c(16);
    c = std::move(b);
    EXPECT_EQ(c.data(), p);
    EXPECT_EQ(static_cast<unsigned char>(c.data()[127]), 0x5au);
}

TEST(AlignedBuffer, PadToLine) {
    EXPECT_EQ(mem::pad_to_line(0), 0u);
    EXPECT_EQ(mem::pad_to_line(1), 64u);
    EXPECT_EQ(mem::pad_to_line(64), 64u);
    EXPECT_EQ(mem::pad_to_line(65), 128u);
}

// --- dat allocation through the layer -----------------------------------

TEST(DatAlignment, EveryDatBaseIsCacheLineAligned) {
    auto s = op_decl_set(97, "cells");  // odd size: exercises tail padding
    auto d1 = op_decl_dat_zero<double>(s, 1, "double", "d1");
    auto d2 = op_decl_dat_zero<double>(s, 4, "double", "d2");
    auto d3 = op_decl_dat_zero<float>(s, 3, "float", "d3");
    auto d4 = op_decl_dat_zero<int>(s, 1, "int", "d4");
    for (op_dat* d : {&d1, &d2, &d3, &d4}) {
        EXPECT_TRUE(aligned64(d->raw())) << d->name();
        EXPECT_EQ(d->internal().data.capacity() % mem::cache_line, 0u);
    }
    // Initial values survive the new allocation path.
    std::vector<double> vals(97 * 4);
    for (std::size_t i = 0; i < vals.size(); ++i) {
        vals[i] = static_cast<double>(i) * 0.5;
    }
    auto d5 = op_decl_dat<double>(s, 4, "double", vals, "d5");
    EXPECT_TRUE(aligned64(d5.raw()));
    auto v = d5.view<double>();
    for (std::size_t i = 0; i < vals.size(); ++i) {
        ASSERT_EQ(v[i], vals[i]);
    }
}

}  // namespace
