#include "implicit/search.hpp"

#include <array>

#include "common/expect.hpp"
#include "harmonia/search.hpp"  // resolve_group_size

namespace harmonia::implicit {

using gpusim::LaneMask;

ImplicitDeviceImage ImplicitDeviceImage::upload(gpusim::Device& device,
                                                const ImplicitTree& tree) {
  ImplicitDeviceImage img;
  img.fanout = tree.fanout();
  img.height = tree.height();
  img.num_nodes = tree.num_nodes();
  auto& mem = device.memory();
  img.keys = mem.upload(tree.keys());
  img.values = mem.upload(tree.values());
  return img;
}

ImplicitSearchStats implicit_search_batch(gpusim::Device& device,
                                          const ImplicitDeviceImage& image,
                                          gpusim::DevPtr<Key> queries, std::uint64_t n,
                                          gpusim::DevPtr<Value> out_values,
                                          unsigned group_size) {
  HARMONIA_CHECK(n > 0);
  const gpusim::DeviceSpec& spec = device.spec();
  const unsigned warp = spec.warp_size;
  const unsigned gs = harmonia::resolve_group_size(spec, image.fanout, group_size);
  const unsigned qpw = warp / gs;
  const unsigned kpn = image.keys_per_node();
  const unsigned chunks_per_node = (kpn + gs - 1) / gs;
  const std::uint64_t num_warps = (n + qpw - 1) / qpw;

  auto kernel = [&](gpusim::WarpCtx& w) {
    const std::uint64_t base = w.warp_id() * qpw;
    const unsigned nq = static_cast<unsigned>(std::min<std::uint64_t>(qpw, n - base));

    std::array<std::uint64_t, 32> addrs{};
    std::array<Key, 32> lane_keys{};
    std::array<Key, 32> target{};
    std::array<std::uint32_t, 32> node{};
    std::array<unsigned, 32> sep_leq{};
    std::array<bool, 32> done{};
    std::array<bool, 32> found{};
    std::array<std::uint32_t, 32> found_node{};
    std::array<unsigned, 32> found_slot{};

    LaneMask leader_mask = 0;
    for (unsigned g = 0; g < nq; ++g) {
      leader_mask |= gpusim::lane_bit(g * gs);
      addrs[g * gs] = queries.element_addr(base + g);
    }
    {
      std::array<Key, 32> qvals{};
      w.gather<Key>(leader_mask, std::span(addrs.data(), warp), qvals);
      for (unsigned g = 0; g < nq; ++g) target[g] = qvals[g * gs];
      w.compute(leader_mask);
    }

    // Keys can match at any level, and groups can run out of tree at
    // different depths: the warp loops until every group is done.
    for (unsigned level = 0; level < image.height; ++level) {
      for (unsigned g = 0; g < nq; ++g) {
        if (node[g] >= image.num_nodes) done[g] = true;
        sep_leq[g] = 0;
      }
      bool any_active = false;
      for (unsigned g = 0; g < nq; ++g) any_active |= !done[g];
      if (!any_active) break;

      std::array<bool, 32> scanned{};  // group finished this node's scan
      for (unsigned g = 0; g < nq; ++g) scanned[g] = done[g];
      for (unsigned chunk = 0; chunk < chunks_per_node; ++chunk) {
        LaneMask mask = 0;
        for (unsigned g = 0; g < nq; ++g) {
          if (scanned[g]) continue;
          for (unsigned j = 0; j < gs; ++j) {
            const unsigned slot = chunk * gs + j;
            if (slot >= kpn) break;
            const unsigned lane = g * gs + j;
            mask |= gpusim::lane_bit(lane);
            addrs[lane] = image.key_addr(node[g], slot);
          }
        }
        if (mask == 0) break;
        w.gather<Key>(mask, std::span(addrs.data(), warp), lane_keys);
        w.compute(mask);

        for (unsigned g = 0; g < nq; ++g) {
          if (scanned[g]) continue;
          for (unsigned j = 0; j < gs; ++j) {
            const unsigned slot = chunk * gs + j;
            if (slot >= kpn) {
              scanned[g] = true;
              break;
            }
            const Key k = lane_keys[g * gs + j];
            if (k == target[g]) {
              found[g] = true;
              found_node[g] = node[g];
              found_slot[g] = slot;
              done[g] = true;
              scanned[g] = true;
              break;
            }
            if (k <= target[g]) {
              ++sep_leq[g];
            } else {
              scanned[g] = true;  // boundary: descend via sep_leq
              break;
            }
          }
          if (chunk + 1 == chunks_per_node) scanned[g] = true;
        }
      }

      // Index arithmetic only — no memory access for the child location.
      LaneMask mask = 0;
      for (unsigned g = 0; g < nq; ++g) {
        if (done[g]) continue;
        mask |= gpusim::lane_bit(g * gs);
        node[g] = node[g] * image.fanout + sep_leq[g] + 1;
      }
      if (mask != 0) w.compute(mask);
    }

    LaneMask hit_mask = 0;
    std::array<Value, 32> vals{};
    for (unsigned g = 0; g < nq; ++g) {
      if (found[g]) {
        hit_mask |= gpusim::lane_bit(g * gs);
        addrs[g * gs] = image.value_addr(found_node[g], found_slot[g]);
      }
    }
    if (hit_mask != 0) {
      w.gather<Value>(hit_mask, std::span(addrs.data(), warp), vals);
    }
    LaneMask out_mask = 0;
    std::array<Value, 32> out_vals{};
    for (unsigned g = 0; g < nq; ++g) {
      const unsigned lane = g * gs;
      out_mask |= gpusim::lane_bit(lane);
      addrs[lane] = out_values.element_addr(base + g);
      out_vals[lane] = found[g] ? vals[lane] : kNotFound;
    }
    w.scatter<Value>(out_mask, std::span(addrs.data(), warp),
                     std::span<const Value>(out_vals.data(), warp));
  };

  ImplicitSearchStats stats;
  stats.metrics = device.launch(num_warps, kernel);
  stats.queries = n;
  stats.warps = num_warps;
  return stats;
}

}  // namespace harmonia::implicit
