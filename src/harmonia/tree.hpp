// The Harmonia tree structure (§3.1, Figure 4b): a breadth-first *key
// region* of fixed-size node records and a *prefix-sum child region*.
//
// Key region: node i occupies slots [i*(fanout-1), (i+1)*(fanout-1)) of a
// flat key array, padded with kPadKey beyond the node's real keys. Nodes
// are laid out level by level, left to right (BFS), so each level — and in
// particular the leaf level — is a consecutive, sorted array (which is what
// makes range scans a linear walk).
//
// Child region: prefix_sum[i] is the BFS index of node i's first child
// (Equation 1: child_idx = prefix_sum[node] + i - 1, with 1-based i; we use
// the 0-based form child = prefix_sum[node] + separators_leq_target).
// prefix_sum has num_nodes + 1 entries so a node's child count is
// prefix_sum[i+1] - prefix_sum[i]; leaves get prefix_sum[i] = num_nodes,
// keeping the difference property intact across the internal/leaf boundary.
//
// Values: a parallel value region for the leaf level, slot-aligned with the
// leaf keys.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "btree/btree.hpp"
#include "common/uninit_vector.hpp"

namespace harmonia {

using Key = std::uint64_t;
using Value = std::uint64_t;

/// Pad for unused key slots; larger than any valid key, so padded slots
/// never count as "separator <= target" and never match an equality probe.
inline constexpr Key kPadKey = ~Key{0};

/// Serving-layer sidecar carried by a v2 tree image: everything beyond
/// the raw regions a cold start must restore to resume serving exactly
/// where the crashed process stopped — the bulk-load/compaction fill
/// target (the gapped key region's headroom) and the delta-overlay
/// contents (patched keys and tombstones not yet folded into the base).
/// v1 images decode with the defaults below (no overlay, default fill).
struct TreeSnapshotExtras {
  struct OverlayRecord {
    Key key = 0;
    Value value = 0;
    std::uint8_t tombstone = 0;  // 1 = key hidden, 0 = value shadows base
  };

  double fill_factor = 0.69;
  /// Strictly ascending by key; never contains kPadKey.
  std::vector<OverlayRecord> overlay;
};

class HarmoniaTree {
 public:
  /// Serializes a regular B+tree (Figure 4a -> 4b): same nodes, same key
  /// placement, child pointers replaced by the prefix-sum array.
  static HarmoniaTree from_btree(const btree::BTree& tree);

  /// Builds straight from sorted, distinct entries: the tree
  /// from_btree(BTree::bulk_load(entries, fill_factor)) would give, byte
  /// for byte, without the pointer tree. Leaves take the same key counts
  /// as btree::BTree::bulk_load, and the internal levels come from the
  /// shape builder with its grouping rule. Each leaf slot is written once.
  static HarmoniaTree bulk_load(std::span<const btree::Entry> entries, unsigned fanout,
                                double fill_factor = 0.69);

  /// Builds directly from leaf-level contents: `leaves[i]` holds one leaf's
  /// (key, value) entries (sorted, non-empty, globally ascending). Internal
  /// levels are derived the same way the batch updater's post-batch
  /// rebuild derives them.
  static HarmoniaTree from_leaves(std::vector<std::vector<btree::Entry>> leaves,
                                  unsigned fanout);

  unsigned fanout() const { return fanout_; }
  unsigned height() const { return static_cast<unsigned>(level_start_.size()); }
  std::uint32_t num_nodes() const { return num_nodes_; }
  std::uint32_t num_leaves() const { return num_nodes_ - first_leaf_; }
  std::uint32_t first_leaf_index() const { return first_leaf_; }
  std::uint64_t num_keys() const { return num_keys_; }
  unsigned keys_per_node() const { return fanout_ - 1; }

  /// BFS index of the first node of `level` (root = level 0).
  std::uint32_t level_start(unsigned level) const;

  std::span<const Key> key_region() const { return key_region_; }
  std::span<const std::uint32_t> prefix_sum() const { return prefix_sum_; }
  std::span<const Value> value_region() const { return value_region_; }

  /// Keys of node i (all fanout-1 slots, pads included).
  std::span<const Key> node_keys(std::uint32_t node) const;
  /// Real (non-pad) key count of node i.
  unsigned node_key_count(std::uint32_t node) const;
  std::uint32_t child_count(std::uint32_t node) const;
  bool is_leaf(std::uint32_t node) const { return node >= first_leaf_; }

  /// Value slot (index into value_region) for leaf `node`, key slot `slot`.
  std::uint64_t value_slot(std::uint32_t node, unsigned slot) const;

  /// Host-side point lookup via Equation 1 — the reference implementation
  /// the device kernels are tested against.
  std::optional<Value> search(Key key) const;

  /// Host-side range scan over the consecutive leaf level (§3.2.1):
  /// locate the first leaf slot >= lo, then walk the key region linearly.
  std::vector<btree::Entry> range(Key lo, Key hi, std::size_t limit = 0) const;

  /// Leaf BFS index whose key range contains `key`.
  std::uint32_t find_leaf(Key key) const;

  /// Structural invariant checker; throws ContractViolation on corruption.
  void validate() const;

  // --- In-place leaf mutation (the batch updater's fine-grained path:
  // §3.2.2 updates "without split or merge"; separators above the leaf
  // stay valid because routing bounds are unaffected). ---

  /// Overwrites the value of `key` in `leaf`; false if the key is absent.
  bool leaf_update_inplace(std::uint32_t leaf, Key key, Value value);
  /// Inserts (key, value) into `leaf`, shifting slots right; false if the
  /// leaf is full (caller must take the split path) or the key exists
  /// (overwritten, still returns true).
  bool leaf_insert_inplace(std::uint32_t leaf, Key key, Value value);
  /// Removes `key` from `leaf`, shifting slots left; false if absent.
  /// The caller must not empty a leaf (merge path handles that).
  bool leaf_erase_inplace(std::uint32_t leaf, Key key);

  /// Entries currently stored in `leaf` (sorted).
  std::vector<btree::Entry> leaf_entries(std::uint32_t leaf) const;

  // --- Persistence: versioned binary image with a checksum trailer.
  // A database/file-system index must survive restarts; the format stores
  // the regions verbatim, so load is one validate() away from use.
  // Format v2 (docs/persistence_format.md) appends a TreeSnapshotExtras
  // section under the same FNV checksum; v1 images still load (extras
  // take their defaults). Every header field and section length is
  // validated before use, so a truncated or bit-flipped image always
  // throws ContractViolation — load never partially constructs a tree. ---
  void save(std::ostream& os) const;
  void save(std::ostream& os, const TreeSnapshotExtras& extras) const;
  static HarmoniaTree load(std::istream& is, TreeSnapshotExtras* extras = nullptr);

 private:
  /// The deferred movement writes the rebuilt leaf level in place.
  friend class BatchUpdater;

  HarmoniaTree() = default;

  /// How the shape builder groups a level's nodes under parents:
  /// `target_children` to a parent; a tail shorter than `min_children` is
  /// absorbed into the last parent when that stays within the fanout, and
  /// otherwise split evenly with it.
  struct Grouping {
    std::size_t target_children;
    std::size_t min_children;
  };
  /// The batch rebuild's (and from_leaves') rule: ~69% of the fanout, no
  /// singleton tails. bulk_load uses btree::BTree::bulk_load's instead.
  static Grouping rebuild_grouping(unsigned fanout);

  /// The one shape builder: sizes every region for `leaf_min.size()`
  /// leaves (leaf_min[i] = leaf i's smallest key) and derives the internal
  /// levels — separators and prefix sums — from those min keys, grouped
  /// by `grouping`. The leaf level's key and value slots are left
  /// unwritten: the caller writes every one of them, pads included
  /// (kPadKey keys, zero values), so each byte is written once. The
  /// caller also sets num_keys_. The regions are built in `storage`'s
  /// buffers (a retired tree's, or none), reusing their capacity; its
  /// contents are discarded.
  static HarmoniaTree with_leaf_level(std::span<const Key> leaf_min, unsigned fanout,
                                      Grouping grouping, HarmoniaTree storage);

  unsigned fanout_ = 0;
  std::uint32_t num_nodes_ = 0;
  std::uint32_t first_leaf_ = 0;
  std::uint64_t num_keys_ = 0;
  std::vector<std::uint32_t> level_start_;  // BFS index of each level's first node
  // Regions grow without zero-filling; every builder writes them whole.
  UninitVector<Key> key_region_;
  UninitVector<std::uint32_t> prefix_sum_;  // num_nodes_ + 1 entries
  UninitVector<Value> value_region_;        // num_leaves * (fanout-1) slots
};

}  // namespace harmonia
