#include "gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/expect.hpp"

namespace harmonia::gpusim {
namespace {

TEST(Memory, RoundTripGlobal) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.malloc<std::uint64_t>(16);
  std::vector<std::uint64_t> in(16);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = i * 3 + 1;
  mem.copy_to_device(p, std::span<const std::uint64_t>(in));
  std::vector<std::uint64_t> out(16);
  mem.copy_to_host(std::span<std::uint64_t>(out), p);
  EXPECT_EQ(in, out);
}

TEST(Memory, RoundTripConstant) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.const_malloc<std::uint32_t>(8);
  EXPECT_TRUE(is_const_address(p.addr));
  std::vector<std::uint32_t> in{1, 2, 3, 4, 5, 6, 7, 8};
  mem.copy_to_device(p, std::span<const std::uint32_t>(in));
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(mem.read<std::uint32_t>(p.element_addr(i)), in[i]);
  }
}

TEST(Memory, NullPointerIsAddressZero) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.malloc<std::uint64_t>(1);
  EXPECT_NE(p.addr, 0u);  // address 0 is reserved as null
  EXPECT_FALSE(p.is_null());
  EXPECT_TRUE((DevPtr<std::uint64_t>{}).is_null());
}

TEST(Memory, AllocationsAreAligned) {
  Memory mem(1 << 20, 64 << 10);
  auto a = mem.malloc<std::uint8_t>(3);
  auto b = mem.malloc<std::uint8_t>(3);
  EXPECT_EQ(a.addr % 256, 0u);
  EXPECT_EQ(b.addr % 256, 0u);
  EXPECT_NE(a.addr, b.addr);
}

TEST(Memory, GlobalOverflowThrows) {
  Memory mem(4 << 10, 64 << 10);
  EXPECT_THROW(mem.malloc<std::uint64_t>(1 << 20), ContractViolation);
}

TEST(Memory, ConstantOverflowThrows) {
  Memory mem(1 << 20, 1 << 10);
  EXPECT_THROW(mem.const_malloc<std::uint64_t>(1 << 10), ContractViolation);
}

TEST(Memory, OutOfBoundsReadThrows) {
  Memory mem(1 << 20, 64 << 10);
  std::uint64_t out;
  EXPECT_THROW(mem.read_bytes(1 << 19, &out, sizeof out), ContractViolation);
}

TEST(Memory, FreeAllResets) {
  Memory mem(1 << 20, 64 << 10);
  auto a = mem.malloc<std::uint64_t>(64);
  mem.free_all();
  auto b = mem.malloc<std::uint64_t>(64);
  EXPECT_EQ(a.addr, b.addr);  // bump allocator restarted
  EXPECT_EQ(mem.const_used(), 0u);
}

TEST(Memory, FreeAllReusesCapacityAndFreshAllocationsReadZero) {
  Memory mem(1 << 20, 64 << 10);
  auto a = mem.malloc<std::uint64_t>(4096);
  const std::vector<std::uint64_t> junk(4096, ~std::uint64_t{0});
  mem.copy_to_device(a, std::span<const std::uint64_t>(junk));
  const std::uint64_t used = mem.global_used();

  mem.free_all();
  EXPECT_EQ(mem.global_used(), 256u);  // only the null unit stays burnt
  // A smaller and then a larger allocation over the bytes `a` held: every
  // element reads zero, none of the old data shows through.
  auto b = mem.malloc<std::uint64_t>(100);
  auto c = mem.malloc<std::uint64_t>(4096);
  EXPECT_EQ(b.addr, a.addr);
  EXPECT_GE(mem.global_used(), used);
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_EQ(mem.read<std::uint64_t>(b.element_addr(i)), 0u);
  std::vector<std::uint64_t> out(4096, 1);
  mem.copy_to_host(std::span<std::uint64_t>(out), c);
  EXPECT_EQ(out, std::vector<std::uint64_t>(4096, 0));
  // Past the live allocations stays out of bounds after the reset.
  std::uint64_t word;
  EXPECT_THROW(mem.read_bytes(mem.global_used() + 4096, &word, sizeof word), ContractViolation);
}

TEST(Memory, ElementAddressArithmetic) {
  DevPtr<std::uint64_t> p{1024};
  EXPECT_EQ(p.element_addr(0), 1024u);
  EXPECT_EQ(p.element_addr(3), 1024u + 24u);
  EXPECT_EQ(p.offset(2).addr, 1024u + 16u);
}

TEST(Memory, ConstAndGlobalSpacesDisjoint) {
  Memory mem(1 << 20, 64 << 10);
  auto g = mem.malloc<std::uint64_t>(4);
  auto c = mem.const_malloc<std::uint64_t>(4);
  mem.write(g.element_addr(0), std::uint64_t{111});
  mem.write(c.element_addr(0), std::uint64_t{222});
  EXPECT_EQ(mem.read<std::uint64_t>(g.element_addr(0)), 111u);
  EXPECT_EQ(mem.read<std::uint64_t>(c.element_addr(0)), 222u);
}

}  // namespace
}  // namespace harmonia::gpusim
