#include "harmonia/device_image.hpp"

#include "common/expect.hpp"

namespace harmonia {

HarmoniaDeviceImage HarmoniaDeviceImage::upload(gpusim::Device& device,
                                                const HarmoniaTree& tree,
                                                std::uint64_t const_budget_bytes) {
  HarmoniaDeviceImage img;
  img.fanout = tree.fanout();
  img.height = tree.height();
  img.num_nodes = tree.num_nodes();
  img.first_leaf = tree.first_leaf_index();

  auto& mem = device.memory();

  // Each region is written once: upload copies without zeroing first.
  img.key_region = mem.upload(tree.key_region());
  if (!tree.value_region().empty()) img.value_region = mem.upload(tree.value_region());
  img.ps_global = mem.upload(tree.prefix_sum());

  // Constant placement: as many complete top levels of the prefix-sum
  // array as fit the budget (and the device's constant segment).
  const std::uint64_t budget =
      std::min<std::uint64_t>(const_budget_bytes,
                              mem.const_capacity() - mem.const_used());
  std::uint32_t const_count = 0;
  for (unsigned level = 0; level + 1 <= tree.height(); ++level) {
    const std::uint32_t end = level + 1 < tree.height()
                                  ? tree.level_start(level + 1)
                                  : tree.num_nodes();
    if (static_cast<std::uint64_t>(end) * sizeof(std::uint32_t) > budget) break;
    const_count = end;
  }
  if (const_count > 0) {
    img.ps_const = mem.const_malloc<std::uint32_t>(const_count);
    mem.copy_to_device(img.ps_const, tree.prefix_sum().subspan(0, const_count));
    img.ps_const_count = const_count;
  }
  return img;
}

}  // namespace harmonia
