#include "hbtree/layout.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/expect.hpp"

namespace harmonia::hbtree {

HBTreeHost HBTreeHost::from_btree(const btree::BTree& tree) {
  const auto levels = tree.levels();
  HARMONIA_CHECK_MSG(!levels.empty(), "cannot serialize an empty B+tree");

  HBTreeHost out;
  out.fanout_ = tree.fanout();
  out.height_ = static_cast<unsigned>(levels.size());
  const unsigned kpn = out.fanout_ - 1;

  std::uint32_t total = 0;
  for (const auto& level : levels) total += static_cast<std::uint32_t>(level.size());
  out.num_nodes_ = total;
  out.first_leaf_ = total - static_cast<std::uint32_t>(levels.back().size());

  out.keys_.assign(static_cast<std::size_t>(total) * kpn, kPadKey);
  out.children_.assign(static_cast<std::size_t>(total) * out.fanout_, kNoChild);
  out.values_.assign(
      static_cast<std::size_t>(total - out.first_leaf_) * kpn, Value{0});

  std::uint32_t bfs = 0;
  std::uint32_t next_child = 1;
  for (const auto& level : levels) {
    for (const btree::Node* node : level) {
      Key* kslots = out.keys_.data() + static_cast<std::size_t>(bfs) * kpn;
      std::copy(node->keys.begin(), node->keys.end(), kslots);
      if (node->leaf) {
        Value* vals =
            out.values_.data() + static_cast<std::size_t>(bfs - out.first_leaf_) * kpn;
        std::copy(node->values.begin(), node->values.end(), vals);
      } else {
        std::uint32_t* cslots =
            out.children_.data() + static_cast<std::size_t>(bfs) * out.fanout_;
        for (std::size_t c = 0; c < node->children.size(); ++c) {
          cslots[c] = next_child + static_cast<std::uint32_t>(c);
        }
        next_child += static_cast<std::uint32_t>(node->children.size());
      }
      ++bfs;
    }
  }
  return out;
}

std::span<const Key> HBTreeHost::node_keys(std::uint32_t node) const {
  HARMONIA_CHECK(node < num_nodes_);
  return std::span<const Key>(keys_).subspan(
      static_cast<std::size_t>(node) * keys_per_node(), keys_per_node());
}

std::span<const std::uint32_t> HBTreeHost::node_children(std::uint32_t node) const {
  HARMONIA_CHECK(node < num_nodes_);
  return std::span<const std::uint32_t>(children_).subspan(
      static_cast<std::size_t>(node) * fanout_, fanout_);
}

std::optional<Value> HBTreeHost::search(Key key) const {
  if (num_nodes_ == 0 || key == kPadKey) return std::nullopt;
  std::uint32_t node = 0;
  for (unsigned level = 0; level + 1 < height_; ++level) {
    const auto keys = node_keys(node);
    const auto it = std::upper_bound(keys.begin(), keys.end(), key);
    const auto idx = static_cast<std::size_t>(it - keys.begin());
    node = node_children(node)[idx];
    HARMONIA_CHECK(node != kNoChild);
  }
  const auto keys = node_keys(node);
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return std::nullopt;
  const auto slot = static_cast<std::size_t>(it - keys.begin());
  return values_[static_cast<std::size_t>(node - first_leaf_) * keys_per_node() + slot];
}

HBTreeDeviceImage HBTreeDeviceImage::upload(gpusim::Device& device, const HBTreeHost& host) {
  HBTreeDeviceImage img;
  img.fanout = host.fanout();
  img.height = host.height();
  img.num_nodes = host.num_nodes();
  img.first_leaf = host.first_leaf_index();
  const unsigned kpn = host.keys_per_node();

  // keys then child refs, padded to 8 B so records stay aligned.
  img.node_stride = (static_cast<std::uint64_t>(kpn) * sizeof(Key) +
                     static_cast<std::uint64_t>(img.fanout) * sizeof(std::uint32_t) + 7) /
                    8 * 8;

  // Node records are assembled host-side (stride padding zeroed) and
  // uploaded in one copy, the same write-once path the Harmonia image
  // takes, so Figure 14 compares like with like.
  std::vector<std::uint8_t> records(img.node_stride * img.num_nodes);
  for (std::uint32_t n = 0; n < img.num_nodes; ++n) {
    std::uint8_t* rec = records.data() + n * img.node_stride;
    const auto keys = host.node_keys(n);
    std::memcpy(rec, keys.data(), keys.size_bytes());
    const auto children = host.node_children(n);
    std::memcpy(rec + kpn * sizeof(Key), children.data(), children.size_bytes());
  }
  auto& mem = device.memory();
  img.nodes = mem.upload(std::span<const std::uint8_t>(records));
  if (!host.value_region().empty()) img.value_region = mem.upload(host.value_region());
  return img;
}

}  // namespace harmonia::hbtree
