#include "harmonia/tree.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/expect.hpp"

namespace harmonia {

namespace {

/// Number of separators <= key among the fanout-1 slots of a node record.
/// Pad slots hold kPadKey, which compares greater than every valid key, so
/// they never count — no per-node key count is needed during traversal,
/// exactly as in the device kernels.
unsigned separators_leq(std::span<const Key> slots, Key key) {
  const auto it = std::upper_bound(slots.begin(), slots.end(), key);
  return static_cast<unsigned>(it - slots.begin());
}

}  // namespace

std::uint32_t HarmoniaTree::level_start(unsigned level) const {
  HARMONIA_CHECK(level < level_start_.size());
  return level_start_[level];
}

std::span<const Key> HarmoniaTree::node_keys(std::uint32_t node) const {
  HARMONIA_CHECK(node < num_nodes_);
  return std::span<const Key>(key_region_).subspan(
      static_cast<std::size_t>(node) * keys_per_node(), keys_per_node());
}

unsigned HarmoniaTree::node_key_count(std::uint32_t node) const {
  const auto keys = node_keys(node);
  unsigned count = 0;
  while (count < keys.size() && keys[count] != kPadKey) ++count;
  return count;
}

std::uint32_t HarmoniaTree::child_count(std::uint32_t node) const {
  HARMONIA_CHECK(node < num_nodes_);
  return prefix_sum_[node + 1] - prefix_sum_[node];
}

std::uint64_t HarmoniaTree::value_slot(std::uint32_t node, unsigned slot) const {
  HARMONIA_CHECK(is_leaf(node));
  HARMONIA_CHECK(slot < keys_per_node());
  return static_cast<std::uint64_t>(node - first_leaf_) * keys_per_node() + slot;
}

std::uint32_t HarmoniaTree::find_leaf(Key key) const {
  HARMONIA_CHECK(num_nodes_ > 0);
  HARMONIA_CHECK_MSG(key != kPadKey, "kPadKey is reserved");
  std::uint32_t node = 0;
  for (unsigned level = 0; level + 1 < height(); ++level) {
    const unsigned i = separators_leq(node_keys(node), key);
    node = prefix_sum_[node] + i;
  }
  return node;
}

std::optional<Value> HarmoniaTree::search(Key key) const {
  if (num_nodes_ == 0 || key == kPadKey) return std::nullopt;
  const std::uint32_t leaf = find_leaf(key);
  const auto keys = node_keys(leaf);
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return std::nullopt;
  const auto slot = static_cast<unsigned>(it - keys.begin());
  return value_region_[value_slot(leaf, slot)];
}

std::vector<btree::Entry> HarmoniaTree::range(Key lo, Key hi, std::size_t limit) const {
  std::vector<btree::Entry> out;
  if (num_nodes_ == 0 || lo > hi) return out;
  std::uint32_t leaf = find_leaf(lo);
  // Walk the consecutive leaf level of the key region (§3.2.1).
  for (; leaf < num_nodes_; ++leaf) {
    const auto keys = node_keys(leaf);
    for (unsigned s = 0; s < keys.size(); ++s) {
      if (keys[s] == kPadKey) break;  // node tail
      if (keys[s] < lo) continue;
      if (keys[s] > hi) return out;
      out.push_back({keys[s], value_region_[value_slot(leaf, s)]});
      if (limit != 0 && out.size() >= limit) return out;
    }
  }
  return out;
}

HarmoniaTree HarmoniaTree::from_btree(const btree::BTree& tree) {
  const auto levels = tree.levels();
  HARMONIA_CHECK_MSG(!levels.empty(), "cannot serialize an empty B+tree");

  HarmoniaTree out;
  out.fanout_ = tree.fanout();
  const unsigned kpn = out.fanout_ - 1;

  std::uint32_t total = 0;
  for (const auto& level : levels) {
    out.level_start_.push_back(total);
    total += static_cast<std::uint32_t>(level.size());
  }
  out.num_nodes_ = total;
  out.first_leaf_ = out.level_start_.back();
  out.num_keys_ = tree.size();

  // Every slot is written once below: real keys, then the padded tail.
  out.key_region_.resize(static_cast<std::size_t>(total) * kpn);
  out.prefix_sum_.resize(std::size_t{total} + 1);
  out.prefix_sum_[total] = total;
  out.value_region_.resize(static_cast<std::size_t>(total - out.first_leaf_) * kpn);

  std::uint32_t bfs = 0;
  std::uint32_t next_child = 1;
  for (const auto& level : levels) {
    for (const btree::Node* node : level) {
      Key* slots = out.key_region_.data() + static_cast<std::size_t>(bfs) * kpn;
      std::fill(std::copy(node->keys.begin(), node->keys.end(), slots), slots + kpn, kPadKey);
      if (node->leaf) {
        Value* vals =
            out.value_region_.data() + static_cast<std::size_t>(bfs - out.first_leaf_) * kpn;
        std::fill(std::copy(node->values.begin(), node->values.end(), vals), vals + kpn,
                  Value{0});
        out.prefix_sum_[bfs] = total;
      } else {
        out.prefix_sum_[bfs] = next_child;
        next_child += static_cast<std::uint32_t>(node->children.size());
      }
      ++bfs;
    }
  }
  HARMONIA_CHECK(next_child == total || levels.size() == 1);
  return out;
}

namespace {

/// Resizes `v` to `n` elements inside its existing capacity, writing
/// none of them. When it must grow, it reserves half again as much: a
/// tree that grows batch by batch then reuses the same pages for several
/// rebuilds instead of faulting in fresh ones each time.
template <typename T>
void resize_reusing(UninitVector<T>& v, std::size_t n) {
  if (v.capacity() < n) {
    v = UninitVector<T>();
    v.reserve(n + n / 2);
  }
  v.resize(n);
}

}  // namespace

HarmoniaTree::Grouping HarmoniaTree::rebuild_grouping(unsigned fanout) {
  return {std::clamp<std::size_t>(static_cast<std::size_t>(std::lround(fanout * 0.69)), 2,
                                  fanout),
          2};
}

HarmoniaTree HarmoniaTree::with_leaf_level(std::span<const Key> leaf_min, unsigned fanout,
                                           Grouping grouping, HarmoniaTree storage) {
  HARMONIA_CHECK(fanout >= 4);
  HARMONIA_CHECK(!leaf_min.empty());
  HARMONIA_CHECK(grouping.target_children >= 2 && grouping.target_children <= fanout);
  const unsigned kpn = fanout - 1;

  // Internal levels bottom-up: each node's min key and child count.
  // parents[0] groups the leaves; the last level holds the root.
  struct Level {
    std::vector<Key> min_key;
    std::vector<std::uint32_t> children;
  };
  std::vector<Level> parents;
  const auto level_mins = [&](std::size_t i) {
    return i == 0 ? leaf_min : std::span<const Key>(parents[i - 1].min_key);
  };
  while (level_mins(parents.size()).size() > 1) {
    const std::span<const Key> child_min = level_mins(parents.size());
    Level up;
    std::size_t i = 0;
    while (i < child_min.size()) {
      std::size_t take = std::min(grouping.target_children, child_min.size() - i);
      const std::size_t rest = child_min.size() - i - take;
      if (rest > 0 && rest < grouping.min_children) {
        // No underfull tail node: absorb it if the node has room,
        // otherwise split the remainder evenly.
        if (take + rest <= fanout) {
          take += rest;
        } else {
          take = (take + rest + 1) / 2;
        }
      }
      up.min_key.push_back(child_min[i]);
      up.children.push_back(static_cast<std::uint32_t>(take));
      i += take;
    }
    parents.push_back(std::move(up));
  }

  HarmoniaTree out = std::move(storage);
  out.fanout_ = fanout;
  out.level_start_.clear();
  std::uint32_t total = 0;
  for (std::size_t lvl = parents.size(); lvl > 0; --lvl) {
    out.level_start_.push_back(total);
    total += static_cast<std::uint32_t>(parents[lvl - 1].children.size());
  }
  out.level_start_.push_back(total);
  total += static_cast<std::uint32_t>(leaf_min.size());
  out.num_nodes_ = total;
  out.first_leaf_ = out.level_start_.back();

  resize_reusing(out.key_region_, static_cast<std::size_t>(total) * kpn);
  resize_reusing(out.prefix_sum_, std::size_t{total} + 1);
  resize_reusing(out.value_region_, leaf_min.size() * kpn);
  // Leaves (and the sentinel) point past the last node; the leaf level's
  // slots are the caller's to write.
  std::fill(out.prefix_sum_.begin() + out.first_leaf_, out.prefix_sum_.end(), total);

  // Internal nodes, top-down in BFS order: separators are the min keys of
  // children 1..n-1.
  std::uint32_t bfs = 0;
  std::uint32_t next_child = 1;
  for (std::size_t lvl = parents.size(); lvl > 0; --lvl) {
    const std::span<const Key> child_min = level_mins(lvl - 1);
    std::size_t child_pos = 0;  // each node's first child within child_min
    for (const std::uint32_t children : parents[lvl - 1].children) {
      Key* slots = out.key_region_.data() + static_cast<std::size_t>(bfs) * kpn;
      for (std::uint32_t c = 1; c < children; ++c) {
        slots[c - 1] = child_min[child_pos + c];
      }
      std::fill(slots + (children - 1), slots + kpn, kPadKey);
      out.prefix_sum_[bfs] = next_child;
      next_child += children;
      child_pos += children;
      ++bfs;
    }
    HARMONIA_CHECK(child_pos == child_min.size());
  }
  HARMONIA_CHECK(next_child == total || parents.empty());
  return out;
}

HarmoniaTree HarmoniaTree::bulk_load(std::span<const btree::Entry> entries, unsigned fanout,
                                     double fill_factor) {
  HARMONIA_CHECK(fanout >= 4);
  HARMONIA_CHECK(fill_factor > 0.0 && fill_factor <= 1.0);
  HARMONIA_CHECK_MSG(!entries.empty(), "cannot bulk-load an empty tree");
  // btree::BTree::bulk_load's partition rule: target_keys per leaf, and a
  // tail shorter than min_keys absorbed into the last leaf when it fits,
  // otherwise split evenly with it.
  const std::size_t max_keys = fanout - 1;
  const std::size_t min_keys = max_keys / 2;
  const auto target_keys = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(static_cast<double>(max_keys) * fill_factor)),
      std::max<std::size_t>(1, min_keys), max_keys);
  const auto leaf_take = [&](std::size_t i) {
    std::size_t take = std::min(target_keys, entries.size() - i);
    const std::size_t rest = entries.size() - i - take;
    if (rest > 0 && rest < min_keys) {
      take = take + rest <= max_keys ? take + rest : (take + rest + 1) / 2;
    }
    return take;
  };

  // Pass 1: each leaf's min key (one entry read per leaf).
  std::vector<Key> leaf_min;
  leaf_min.reserve(entries.size() / target_keys + 1);
  for (std::size_t i = 0; i < entries.size(); i += leaf_take(i)) {
    leaf_min.push_back(entries[i].key);
  }

  // The internal levels group as BTree::bulk_load's do: target_keys + 1
  // children, tails shorter than min_keys + 1 absorbed or split.
  // target_keys's clamp already keeps target_keys + 1 within [2, fanout].
  HarmoniaTree out =
      with_leaf_level(leaf_min, fanout, {target_keys + 1, min_keys + 1}, HarmoniaTree());
  out.num_keys_ = entries.size();

  // Pass 2: every leaf slot once, checking the input ascends as it goes.
  Key* keys = out.key_region_.data() + std::size_t{out.first_leaf_} * max_keys;
  Value* vals = out.value_region_.data();
  for (std::size_t i = 0; i < entries.size();) {
    const std::size_t take = leaf_take(i);
    for (std::size_t s = 0; s < take; ++s) {
      HARMONIA_CHECK_MSG(i + s == 0 || entries[i + s - 1].key < entries[i + s].key,
                         "bulk_load input must be sorted and distinct");
      keys[s] = entries[i + s].key;
      vals[s] = entries[i + s].value;
    }
    std::fill(keys + take, keys + max_keys, kPadKey);
    std::fill(vals + take, vals + max_keys, Value{0});
    keys += max_keys;
    vals += max_keys;
    i += take;
  }
#ifndef NDEBUG
  out.validate();
#endif
  return out;
}

HarmoniaTree HarmoniaTree::from_leaves(std::vector<std::vector<btree::Entry>> leaves,
                                       unsigned fanout) {
  HARMONIA_CHECK(fanout >= 4);
  const unsigned kpn = fanout - 1;
  std::vector<Key> leaf_min;
  leaf_min.reserve(leaves.size());
  std::uint64_t num_keys = 0;
  for (const auto& leaf : leaves) {
    HARMONIA_CHECK_MSG(!leaf.empty(), "empty leaf in from_leaves");
    HARMONIA_CHECK_MSG(leaf.size() <= kpn, "overfull leaf in from_leaves");
    leaf_min.push_back(leaf.front().key);
    num_keys += leaf.size();
  }

  HarmoniaTree out =
      with_leaf_level(leaf_min, fanout, rebuild_grouping(fanout), HarmoniaTree());
  out.num_keys_ = num_keys;
  Key prev = 0;
  bool have_prev = false;
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    Key* slots = out.key_region_.data() + (static_cast<std::size_t>(out.first_leaf_) + l) * kpn;
    Value* vals = out.value_region_.data() + l * kpn;
    for (std::size_t s = 0; s < leaves[l].size(); ++s) {
      HARMONIA_CHECK_MSG(!have_prev || leaves[l][s].key > prev,
                         "from_leaves input not globally ascending");
      prev = leaves[l][s].key;
      have_prev = true;
      slots[s] = leaves[l][s].key;
      vals[s] = leaves[l][s].value;
    }
    std::fill(slots + leaves[l].size(), slots + kpn, kPadKey);
    std::fill(vals + leaves[l].size(), vals + kpn, Value{0});
  }
  return out;
}

bool HarmoniaTree::leaf_update_inplace(std::uint32_t leaf, Key key, Value value) {
  HARMONIA_CHECK(is_leaf(leaf));
  const auto keys = node_keys(leaf);
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return false;
  const auto slot = static_cast<unsigned>(it - keys.begin());
  value_region_[value_slot(leaf, slot)] = value;
  return true;
}

bool HarmoniaTree::leaf_insert_inplace(std::uint32_t leaf, Key key, Value value) {
  HARMONIA_CHECK(is_leaf(leaf));
  HARMONIA_CHECK(key != kPadKey);
  const unsigned kpn = keys_per_node();
  Key* slots = key_region_.data() + static_cast<std::size_t>(leaf) * kpn;
  Value* vals = value_region_.data() + value_slot(leaf, 0);
  const unsigned count = node_key_count(leaf);

  const auto it = std::lower_bound(slots, slots + count, key);
  const auto pos = static_cast<unsigned>(it - slots);
  if (pos < count && slots[pos] == key) {
    vals[pos] = value;  // existing key: plain overwrite
    return true;
  }
  if (count == kpn) return false;  // full: caller takes the split path

  for (unsigned s = count; s > pos; --s) {
    slots[s] = slots[s - 1];
    vals[s] = vals[s - 1];
  }
  slots[pos] = key;
  vals[pos] = value;
  // The updater's fine path holds only the target leaf's lock, so two
  // threads working different leaves mutate this tree-wide counter
  // concurrently; the relaxed atomic keeps the total exact without
  // serializing the leaves (commutative, so still deterministic).
  std::atomic_ref<std::uint64_t>(num_keys_).fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool HarmoniaTree::leaf_erase_inplace(std::uint32_t leaf, Key key) {
  HARMONIA_CHECK(is_leaf(leaf));
  const unsigned kpn = keys_per_node();
  Key* slots = key_region_.data() + static_cast<std::size_t>(leaf) * kpn;
  Value* vals = value_region_.data() + value_slot(leaf, 0);
  const unsigned count = node_key_count(leaf);

  const auto it = std::lower_bound(slots, slots + count, key);
  const auto pos = static_cast<unsigned>(it - slots);
  if (pos >= count || slots[pos] != key) return false;
  HARMONIA_CHECK_MSG(count > 1, "in-place erase would empty the leaf (merge path required)");

  for (unsigned s = pos; s + 1 < count; ++s) {
    slots[s] = slots[s + 1];
    vals[s] = vals[s + 1];
  }
  slots[count - 1] = kPadKey;
  vals[count - 1] = Value{0};
  // See leaf_insert_inplace: per-leaf locks don't cover this counter.
  std::atomic_ref<std::uint64_t>(num_keys_).fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::vector<btree::Entry> HarmoniaTree::leaf_entries(std::uint32_t leaf) const {
  HARMONIA_CHECK(is_leaf(leaf));
  const auto keys = node_keys(leaf);
  const Value* vals = value_region_.data() + value_slot(leaf, 0);
  const unsigned count = node_key_count(leaf);
  std::vector<btree::Entry> out;
  out.reserve(count);
  for (unsigned s = 0; s < count; ++s) out.push_back({keys[s], vals[s]});
  return out;
}

namespace {

constexpr std::uint32_t kMagic = 0x484D5254;  // "HMRT"
constexpr std::uint32_t kFormatVersion = 2;

/// FNV-1a over a byte range, accumulated into `h`.
void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

template <typename T>
void write_pod(std::ostream& os, std::uint64_t& h, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
  fnv1a(h, &v, sizeof v);
}

template <typename T>
void write_vec(std::ostream& os, std::uint64_t& h, std::span<const T> v) {
  write_pod(os, h, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
  fnv1a(h, v.data(), v.size() * sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, std::uint64_t& h) {
  T v;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image");
  fnv1a(h, &v, sizeof v);
  return v;
}

/// Reads a vector whose length is already implied by validated header
/// fields. The stored count must match `expect` — an unguarded count
/// from a bit-flipped image would otherwise drive a huge allocation
/// instead of a clean ContractViolation.
template <typename T>
void read_vec_expect(std::istream& is, std::uint64_t& h, std::uint64_t expect,
                     const char* what, UninitVector<T>& v) {
  const auto n = read_pod<std::uint64_t>(is, h);
  HARMONIA_CHECK_MSG(n == expect, "corrupt Harmonia image: " << what << " holds " << n
                                      << " entries, header implies " << expect);
  v.resize(n);
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image");
  fnv1a(h, v.data(), v.size() * sizeof(T));
}

}  // namespace

void HarmoniaTree::save(std::ostream& os) const { save(os, TreeSnapshotExtras{}); }

void HarmoniaTree::save(std::ostream& os, const TreeSnapshotExtras& extras) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  write_pod(os, h, kMagic);
  write_pod(os, h, kFormatVersion);
  write_pod(os, h, fanout_);
  write_pod(os, h, num_nodes_);
  write_pod(os, h, first_leaf_);
  write_pod(os, h, num_keys_);
  write_vec(os, h, std::span<const std::uint32_t>(level_start_));
  write_vec(os, h, key_region());
  write_vec(os, h, prefix_sum());
  write_vec(os, h, value_region());
  // v2 extras section, under the same running checksum. Overlay records
  // are written field by field so the on-disk layout is packed (17 bytes
  // per record) and independent of struct padding.
  write_pod(os, h, extras.fill_factor);
  write_pod(os, h, static_cast<std::uint64_t>(extras.overlay.size()));
  for (const auto& rec : extras.overlay) {
    write_pod(os, h, rec.key);
    write_pod(os, h, rec.value);
    write_pod(os, h, rec.tombstone);
  }
  os.write(reinterpret_cast<const char*>(&h), sizeof h);  // checksum trailer
  HARMONIA_CHECK_MSG(os.good(), "write failure while saving Harmonia image");
}

HarmoniaTree HarmoniaTree::load(std::istream& is, TreeSnapshotExtras* extras) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  HARMONIA_CHECK_MSG(read_pod<std::uint32_t>(is, h) == kMagic,
                     "not a Harmonia tree image (bad magic)");
  const auto version = read_pod<std::uint32_t>(is, h);
  HARMONIA_CHECK_MSG(version == 1 || version == kFormatVersion,
                     "unsupported Harmonia image version " << version);
  HarmoniaTree out;
  out.fanout_ = read_pod<unsigned>(is, h);
  out.num_nodes_ = read_pod<std::uint32_t>(is, h);
  out.first_leaf_ = read_pod<std::uint32_t>(is, h);
  out.num_keys_ = read_pod<std::uint64_t>(is, h);
  // Validate the header before it sizes any allocation: a bit flip in a
  // count field must throw, not drive a multi-gigabyte vector resize.
  HARMONIA_CHECK_MSG(out.fanout_ >= 3 && out.fanout_ <= 4096,
                     "corrupt Harmonia image: fanout " << out.fanout_);
  HARMONIA_CHECK_MSG(out.num_nodes_ > 0, "corrupt Harmonia image: zero nodes");
  HARMONIA_CHECK_MSG(out.first_leaf_ < out.num_nodes_,
                     "corrupt Harmonia image: first_leaf " << out.first_leaf_
                                                           << " >= num_nodes " << out.num_nodes_);
  const auto kpn = static_cast<std::uint64_t>(out.fanout_ - 1);
  HARMONIA_CHECK_MSG(out.num_keys_ <= (out.num_nodes_ - out.first_leaf_) * kpn,
                     "corrupt Harmonia image: num_keys " << out.num_keys_
                                                         << " exceeds leaf capacity");
  const auto levels = read_pod<std::uint64_t>(is, h);
  HARMONIA_CHECK_MSG(levels >= 1 && levels <= 64,
                     "corrupt Harmonia image: " << levels << " levels");
  out.level_start_.resize(levels);
  is.read(reinterpret_cast<char*>(out.level_start_.data()),
          static_cast<std::streamsize>(levels * sizeof(std::uint32_t)));
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image");
  fnv1a(h, out.level_start_.data(), levels * sizeof(std::uint32_t));
  read_vec_expect(is, h, out.num_nodes_ * kpn, "key region", out.key_region_);
  read_vec_expect(is, h, out.num_nodes_ + std::uint64_t{1}, "prefix-sum region",
                  out.prefix_sum_);
  read_vec_expect(is, h, (out.num_nodes_ - out.first_leaf_) * kpn, "value region",
                  out.value_region_);

  TreeSnapshotExtras ex;
  if (version >= 2) {
    ex.fill_factor = read_pod<double>(is, h);
    HARMONIA_CHECK_MSG(ex.fill_factor > 0.0 && ex.fill_factor <= 1.0,
                       "corrupt Harmonia image: fill_factor " << ex.fill_factor);
    const auto overlay_count = read_pod<std::uint64_t>(is, h);
    HARMONIA_CHECK_MSG(overlay_count <= out.num_keys_ + (std::uint64_t{1} << 20),
                       "corrupt Harmonia image: overlay holds " << overlay_count << " records");
    ex.overlay.resize(overlay_count);
    for (std::uint64_t i = 0; i < overlay_count; ++i) {
      auto& rec = ex.overlay[i];
      rec.key = read_pod<Key>(is, h);
      rec.value = read_pod<Value>(is, h);
      rec.tombstone = read_pod<std::uint8_t>(is, h);
      HARMONIA_CHECK_MSG(rec.key != kPadKey, "corrupt Harmonia image: pad key in overlay");
      HARMONIA_CHECK_MSG(rec.tombstone <= 1,
                         "corrupt Harmonia image: overlay tombstone flag " << +rec.tombstone);
      HARMONIA_CHECK_MSG(i == 0 || ex.overlay[i - 1].key < rec.key,
                         "corrupt Harmonia image: overlay keys not strictly ascending");
    }
  }

  std::uint64_t stored = 0;
  is.read(reinterpret_cast<char*>(&stored), sizeof stored);
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image (missing checksum)");
  HARMONIA_CHECK_MSG(stored == h, "Harmonia image checksum mismatch");
  out.validate();  // never trust bytes from disk
  if (extras != nullptr) *extras = std::move(ex);
  return out;
}

void HarmoniaTree::validate() const {
  HARMONIA_CHECK(num_nodes_ > 0);
  const unsigned kpn = keys_per_node();
  HARMONIA_CHECK(key_region_.size() == static_cast<std::size_t>(num_nodes_) * kpn);
  HARMONIA_CHECK(prefix_sum_.size() == static_cast<std::size_t>(num_nodes_) + 1);
  HARMONIA_CHECK(prefix_sum_[num_nodes_] == num_nodes_);
  HARMONIA_CHECK(value_region_.size() ==
                 static_cast<std::size_t>(num_leaves()) * kpn);

  std::uint64_t leaf_keys = 0;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    const auto keys = node_keys(n);
    // Real keys form a sorted, strictly increasing prefix; pads the tail.
    unsigned count = node_key_count(n);
    for (unsigned s = 0; s + 1 < count; ++s) {
      HARMONIA_CHECK_MSG(keys[s] < keys[s + 1], "node keys not strictly ascending");
    }
    for (unsigned s = count; s < kpn; ++s) {
      HARMONIA_CHECK_MSG(keys[s] == kPadKey, "pad slot before a real key");
    }

    if (is_leaf(n)) {
      HARMONIA_CHECK_MSG(child_count(n) == 0, "leaf with children");
      HARMONIA_CHECK_MSG(count > 0, "empty leaf node");
      // Pad slots carry zero values, so a leaf record moves as a whole.
      for (unsigned s = count; s < kpn; ++s) {
        HARMONIA_CHECK_MSG(value_region_[value_slot(n, s)] == Value{0},
                           "pad slot with a nonzero value");
      }
      leaf_keys += count;
    } else {
      HARMONIA_CHECK_MSG(child_count(n) == count + 1, "internal children != keys + 1");
      HARMONIA_CHECK_MSG(prefix_sum_[n] > n, "child index not after parent in BFS order");
      // Separator s bounds its neighbours: every key in child s's subtree
      // is < keys[s] and every key in child s+1's subtree is >= keys[s].
      // (Equality with the right subtree's min can drift after in-place
      // deletes; the bound is what routing correctness needs.)
      for (unsigned s = 0; s < count; ++s) {
        std::uint32_t right = prefix_sum_[n] + s + 1;
        while (!is_leaf(right)) right = prefix_sum_[right];
        HARMONIA_CHECK_MSG(node_keys(right)[0] >= keys[s],
                           "right child subtree min below separator");
        std::uint32_t left = prefix_sum_[n] + s;
        while (!is_leaf(left)) left = prefix_sum_[left] + child_count(left) - 1;
        const unsigned left_count = node_key_count(left);
        HARMONIA_CHECK_MSG(left_count > 0 && node_keys(left)[left_count - 1] < keys[s],
                           "left child subtree max not below separator");
      }
    }
  }
  HARMONIA_CHECK_MSG(leaf_keys == num_keys_, "leaf key total mismatch");

  // The leaf level's real keys ascend globally (consecutive sorted array).
  Key prev = 0;
  bool have_prev = false;
  for (std::uint32_t n = first_leaf_; n < num_nodes_; ++n) {
    const auto keys = node_keys(n);
    for (unsigned s = 0; s < node_key_count(n); ++s) {
      HARMONIA_CHECK_MSG(!have_prev || keys[s] > prev, "leaf level not globally sorted");
      prev = keys[s];
      have_prev = true;
    }
  }

  // Every level's start index is consistent with the prefix-sum array.
  for (unsigned lvl = 0; lvl + 1 < height(); ++lvl) {
    HARMONIA_CHECK(prefix_sum_[level_start_[lvl]] == level_start_[lvl + 1]);
  }
}

}  // namespace harmonia
