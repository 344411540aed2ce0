#include "gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <type_traits>
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

TEST(Memory, UploadCopiesExactlyAtTheNextAlignedAddress) {
  Memory mem(1 << 20, 64 << 10);
  auto a = mem.malloc<std::uint8_t>(3);
  std::vector<std::uint64_t> in(1000);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = i * 0x9E3779B97F4A7C15ULL;
  auto p = mem.upload(std::span<const std::uint64_t>(in));
  EXPECT_EQ(p.addr, a.addr + 256);  // where malloc would have placed it
  EXPECT_EQ(mem.global_used(), p.addr + in.size() * sizeof(std::uint64_t));
  std::vector<std::uint64_t> out(in.size());
  mem.copy_to_host(std::span<std::uint64_t>(out), p);
  EXPECT_EQ(out, in);
}

TEST(Memory, MallocAfterUploadReadsZeroAcrossFreeAllAndRegrowth) {
  Memory mem(8 << 20, 64 << 10);
  const std::vector<std::uint64_t> junk(4096, ~std::uint64_t{0});
  mem.upload(std::span<const std::uint64_t>(junk));
  auto after = mem.malloc<std::uint64_t>(512);  // past the upload
  for (std::uint64_t i = 0; i < 512; ++i) ASSERT_EQ(mem.read<std::uint64_t>(after.element_addr(i)), 0u);

  // Over the junk's old bytes after a reset, then far past every page
  // touched so far: every element reads zero.
  mem.free_all();
  mem.upload(std::span<const std::uint64_t>(junk).subspan(0, 7));
  auto over = mem.malloc<std::uint64_t>(4096);
  auto grown = mem.malloc<std::uint64_t>(1 << 19);
  std::vector<std::uint64_t> out(4096, 1);
  mem.copy_to_host(std::span<std::uint64_t>(out), over);
  EXPECT_EQ(out, std::vector<std::uint64_t>(4096, 0));
  out.assign(1 << 19, 1);
  mem.copy_to_host(std::span<std::uint64_t>(out), grown);
  EXPECT_EQ(out, std::vector<std::uint64_t>(1 << 19, 0));
}

TEST(Memory, AlignmentGapsReadZero) {
  Memory mem(1 << 20, 64 << 10);
  const std::vector<std::uint8_t> junk(8192, 0xAB);
  mem.upload(std::span<const std::uint8_t>(junk));
  mem.free_all();
  // The null unit, and the tails behind 3-byte uploads and mallocs, were
  // junk before the reset.
  const std::vector<std::uint8_t> three(3, 0xCD);
  auto a = mem.upload(std::span<const std::uint8_t>(three));
  auto b = mem.malloc<std::uint8_t>(3);
  auto c = mem.upload(std::span<const std::uint8_t>(three));
  for (std::uint64_t addr = 0; addr < mem.global_used(); ++addr) {
    const bool uploaded = (addr >= a.addr && addr < a.addr + 3) || (addr >= c.addr && addr < c.addr + 3);
    ASSERT_EQ(mem.read<std::uint8_t>(addr), uploaded ? 0xCD : 0) << "at " << addr;
  }
  EXPECT_EQ(b.addr, a.addr + 256);

  // Constant segment: a reset re-zeroes what the next allocations cover.
  auto k = mem.const_malloc<std::uint64_t>(40);
  mem.write(k.element_addr(39), ~std::uint64_t{0});
  mem.free_all();
  auto k2 = mem.const_malloc<std::uint8_t>(1);
  auto k3 = mem.const_malloc<std::uint64_t>(40);
  EXPECT_EQ(k2.addr, k.addr);
  for (std::uint64_t i = 0; i < 40; ++i) ASSERT_EQ(mem.read<std::uint64_t>(k3.element_addr(i)), 0u);
  for (std::uint64_t addr = k2.addr; addr < k3.addr; ++addr) ASSERT_EQ(mem.read<std::uint8_t>(addr), 0);
}

TEST(Memory, OutOfRangeCopyThrows) {
  Memory mem(64 << 10, 64 << 10);
  const std::vector<std::uint64_t> in(64, 5);
  auto p = mem.upload(std::span<const std::uint64_t>(in));
  // A copy running past the last allocation, and an upload past capacity.
  const std::vector<std::uint64_t> more(65, 6);
  EXPECT_THROW(mem.copy_to_device(p, std::span<const std::uint64_t>(more)), ContractViolation);
  const std::vector<std::uint64_t> huge(16 << 10, 7);
  EXPECT_THROW(mem.upload(std::span<const std::uint64_t>(huge)), ContractViolation);
  std::vector<std::uint64_t> out(64);
  mem.copy_to_host(std::span<std::uint64_t>(out), p);
  EXPECT_EQ(out, in);  // the failed calls changed nothing
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

static_assert(!std::is_copy_constructible_v<Memory>);
static_assert(!std::is_copy_assignable_v<Memory>);

TEST(Memory, LargeReservationsConstructAndDestroyRepeatedly) {
  // Each Memory reserves its whole 12 GiB segment up front; only touched
  // pages are committed, so 64 in a row neither fail nor pile up.
  for (int i = 0; i < 64; ++i) {
    Memory mem(12ULL << 30, 64 << 10);
    EXPECT_EQ(mem.global_capacity(), 12ULL << 30);
    auto p = mem.malloc<std::uint64_t>(512);
    mem.write(p.element_addr(511), std::uint64_t(i));
    ASSERT_EQ(mem.read<std::uint64_t>(p.element_addr(511)), std::uint64_t(i));
    ASSERT_EQ(mem.read<std::uint64_t>(p.element_addr(0)), 0u);
  }
}

TEST(Memory, AllocatesExactlyUpToCapacity) {
  constexpr std::uint64_t kCapacity = 64 << 10;
  Memory mem(kCapacity, 64 << 10);
  auto p = mem.malloc<std::uint8_t>(kCapacity - mem.global_used());
  EXPECT_EQ(mem.global_used(), kCapacity);
  EXPECT_EQ(mem.read<std::uint8_t>(kCapacity - 1), 0);
  mem.write(kCapacity - 1, std::uint8_t{0x5A});
  EXPECT_EQ(mem.read<std::uint8_t>(kCapacity - 1), 0x5A);
  EXPECT_THROW(mem.malloc<std::uint8_t>(1), ContractViolation);
  std::uint8_t byte = 0;
  EXPECT_THROW(mem.read_bytes(kCapacity, &byte, 1), ContractViolation);
  EXPECT_EQ(mem.global_used(), kCapacity);  // the failed malloc changed nothing
  EXPECT_FALSE(p.is_null());
}

TEST(Memory, LargerImageAfterFreeAllReadsBackExactly) {
  Memory mem(8 << 20, 64 << 10);
  std::vector<std::uint64_t> small(3000);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = ~i;
  mem.upload(std::span<const std::uint64_t>(small));
  mem.free_all();
  // A larger image over the old one and past it, then a malloc beyond.
  std::vector<std::uint64_t> large(100000);
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = i * 0x9E3779B97F4A7C15ULL + 1;
  auto img = mem.upload(std::span<const std::uint64_t>(large));
  std::vector<std::uint64_t> out(large.size());
  mem.copy_to_host(std::span<std::uint64_t>(out), img);
  EXPECT_EQ(out, large);
  auto after = mem.malloc<std::uint64_t>(4096);
  out.assign(4096, 1);
  mem.copy_to_host(std::span<std::uint64_t>(out), after);
  EXPECT_EQ(out, std::vector<std::uint64_t>(4096, 0));
  // And after one more reset, a malloc over both images reads zero.
  mem.free_all();
  auto over = mem.malloc<std::uint64_t>(large.size() + 4096);
  out.assign(large.size() + 4096, 1);
  mem.copy_to_host(std::span<std::uint64_t>(out), over);
  EXPECT_EQ(out, std::vector<std::uint64_t>(large.size() + 4096, 0));
}

}  // namespace
}  // namespace harmonia::gpusim
