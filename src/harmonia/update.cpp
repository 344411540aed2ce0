#include "harmonia/update.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "common/timer.hpp"
#include "sort/radix_sort.hpp"

namespace harmonia {

using queries::OpKind;
using queries::UpdateOp;

BatchUpdater::BatchUpdater(HarmoniaTree tree, double rebuild_fill)
    : tree_(std::move(tree)), rebuild_fill_(rebuild_fill) {
  HARMONIA_CHECK_MSG(rebuild_fill > 0.0 && rebuild_fill <= 1.0,
                     "rebuild fill factor must be in (0, 1]");
  aux_.resize(tree_.num_leaves());
  fine_count_ = tree_.num_leaves();
  fine_ = std::make_unique<std::mutex[]>(fine_count_);
}

void BatchUpdater::fine_enter() {
  // Algorithm 1, lines 3-5: the global counter is protected by the
  // coarse lock.
  std::lock_guard<std::mutex> lk(coarse_);
  ++global_count_;
}

void BatchUpdater::fine_exit() {
  // Algorithm 1, lines 11-13.
  std::lock_guard<std::mutex> lk(coarse_);
  HARMONIA_DCHECK(global_count_ > 0);
  --global_count_;
}

template <typename Fn>
void BatchUpdater::coarse_section(UpdateStats& local, Fn&& fn) {
  // Algorithm 1, lines 16-24: hold the coarse lock only while no
  // fine-grained op is in flight; otherwise release and retry.
  for (;;) {
    coarse_.lock();
    if (global_count_ == 0) {
      fn();
      coarse_.unlock();
      return;
    }
    coarse_.unlock();
    ++local.coarse_retries;
    std::this_thread::yield();
  }
}

namespace {

/// Sorted-vector helpers for auxiliary nodes.
bool aux_upsert(std::vector<btree::Entry>& entries, Key key, Value value) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                   [](const btree::Entry& e, Key k) { return e.key < k; });
  if (it != entries.end() && it->key == key) {
    it->value = value;
    return false;  // existed
  }
  entries.insert(it, {key, value});
  return true;  // new key
}

bool aux_update(std::vector<btree::Entry>& entries, Key key, Value value) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                   [](const btree::Entry& e, Key k) { return e.key < k; });
  if (it == entries.end() || it->key != key) return false;
  it->value = value;
  return true;
}

bool aux_erase(std::vector<btree::Entry>& entries, Key key) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                   [](const btree::Entry& e, Key k) { return e.key < k; });
  if (it == entries.end() || it->key != key) return false;
  entries.erase(it);
  return true;
}

/// Routes ascending `keys` to their leaves: every key starts at the root,
/// and each internal level is one merge pass of the keys against the
/// separators of the nodes they reached, so each node is read once.
/// `node[i]` ends as the leaf find_leaf(keys[i]) returns.
void route_sorted(const HarmoniaTree& tree, std::span<const Key> keys,
                  std::vector<std::uint32_t>& node) {
  const unsigned kpn = tree.keys_per_node();
  const Key* region = tree.key_region().data();
  const std::uint32_t* prefix_sum = tree.prefix_sum().data();
  node.assign(keys.size(), 0);
  for (unsigned level = 0; level + 1 < tree.height(); ++level) {
    // Node 0, the root, holds every key at level 0 and none below it, so
    // below the root the first key always starts a new node.
    std::uint32_t cur = 0;
    const Key* slots = region;
    unsigned leq = 0;  // separators of `cur` that are <= the current key
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (node[i] != cur) {
        cur = node[i];
        slots = region + std::size_t{cur} * kpn;
        leq = 0;
      }
      // Pads hold kPadKey, above every key, so they stop the merge.
      while (leq < kpn && slots[leq] <= keys[i]) ++leq;
      node[i] = prefix_sum[cur] + leq;
    }
  }
}

}  // namespace

bool BatchUpdater::apply_fine(std::uint32_t li, const UpdateOp& op, UpdateStats& local) {
  const std::uint32_t leaf = tree_.first_leaf_index() + li;
  switch (op.kind) {
    case OpKind::kUpdate: {
      const bool ok = aux_[li] ? aux_update(aux_[li]->entries, op.key, op.value)
                               : tree_.leaf_update_inplace(leaf, op.key, op.value);
      ++local.updates;
      ++local.fine_path_ops;
      if (!ok) ++local.failed;
      return true;
    }
    case OpKind::kInsert:
      // An in-place insert succeeds whenever the leaf still has a free
      // slot and is not split-marked (status "split": use the aux node).
      if (aux_[li] || !tree_.leaf_insert_inplace(leaf, op.key, op.value)) return false;
      ++local.inserts;
      ++local.fine_path_ops;
      return true;
    case OpKind::kDelete: {
      // Fine path while the leaf keeps at least one key; emptying a leaf
      // is a merge and takes the coarse path.
      bool ok;
      if (aux_[li]) {
        if (aux_[li]->entries.size() <= 1) return false;
        ok = aux_erase(aux_[li]->entries, op.key);
      } else {
        if (tree_.node_key_count(leaf) <= 1) return false;
        ok = tree_.leaf_erase_inplace(leaf, op.key);
      }
      ++local.deletes;
      ++local.fine_path_ops;
      if (!ok) ++local.failed;
      return true;
    }
  }
  return true;
}

void BatchUpdater::apply_coarse(std::uint32_t li, const UpdateOp& op, UpdateStats& local) {
  HARMONIA_DCHECK(op.kind != OpKind::kUpdate);
  bool ok = true;
  coarse_section(local, [&] {
    // The leaf moves to its auxiliary node on its first split or merge.
    if (!aux_[li]) {
      aux_[li] = std::make_unique<AuxNode>();
      aux_[li]->entries = tree_.leaf_entries(tree_.first_leaf_index() + li);
    }
    if (op.kind == OpKind::kInsert) {
      aux_upsert(aux_[li]->entries, op.key, op.value);
    } else {
      ok = aux_erase(aux_[li]->entries, op.key);
    }
    rebuild_needed_ = true;
  });
  ++(op.kind == OpKind::kInsert ? local.inserts : local.deletes);
  ++local.coarse_path_ops;
  if (!ok) ++local.failed;
}

void BatchUpdater::apply_leaf(std::uint32_t li, std::span<const UpdateOp> ops,
                              std::span<const std::uint64_t> run, UpdateStats& local) {
  // One fine section and one hold of the leaf lock cover the leaf's run of
  // fine-path ops; a split or merge leaves both before its coarse section,
  // as Algorithm 1 requires, and re-enters after it.
  fine_enter();
  std::unique_lock<std::mutex> leaf_lock(fine_[li]);
  for (const std::uint64_t i : run) {
    if (apply_fine(li, ops[i], local)) continue;
    leaf_lock.unlock();
    fine_exit();
    apply_coarse(li, ops[i], local);
    fine_enter();
    leaf_lock.lock();
  }
  leaf_lock.unlock();
  fine_exit();
}

UpdateStats BatchUpdater::apply(std::span<const UpdateOp> ops, unsigned threads) {
  HARMONIA_CHECK(threads >= 1);
  UpdateStats stats;
  WallTimer timer;

  // Sort (key, arrival index) once; the radix sort is stable, so ops on
  // one key stay in arrival order. Only the bits some key sets are sorted.
  std::vector<Key> keys(ops.size());
  std::vector<std::uint64_t> order(ops.size());
  Key any_bits = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    HARMONIA_CHECK_MSG(ops[i].key != kPadKey, "kPadKey is reserved");
    keys[i] = ops[i].key;
    order[i] = i;
    any_bits |= ops[i].key;
  }
  sort::radix_sort_pairs_bits(keys, order, 0, static_cast<unsigned>(std::bit_width(any_bits)));
  std::vector<std::uint32_t> leaf;
  route_sorted(tree_, keys, leaf);

  // Each leaf's ops form one run of the sorted batch; within the run they
  // apply in arrival order. A leaf's fine/coarse decisions depend only on
  // earlier ops to that leaf, so this equals the arrival-order apply.
  std::vector<std::size_t> run_start;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == 0 || leaf[i] != leaf[i - 1]) run_start.push_back(i);
  }
  run_start.push_back(ops.size());
  for (std::size_t r = 0; r + 1 < run_start.size(); ++r) {
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(run_start[r]),
              order.begin() + static_cast<std::ptrdiff_t>(run_start[r + 1]));
  }
  const std::uint32_t first_leaf = tree_.first_leaf_index();
  const auto apply_runs = [&](std::size_t r_begin, std::size_t r_end, UpdateStats& local) {
    for (std::size_t r = r_begin; r < r_end; ++r) {
      const std::size_t b = run_start[r];
      apply_leaf(leaf[b] - first_leaf, ops,
                 std::span<const std::uint64_t>(order).subspan(b, run_start[r + 1] - b), local);
    }
  };

  const std::size_t runs = run_start.size() - 1;
  if (threads == 1) {
    apply_runs(0, runs, stats);
  } else {
    // Each worker owns a contiguous range of leaves (about an equal share
    // of the ops), so no two workers touch one leaf and any thread count
    // gives the one-thread result.
    std::vector<std::size_t> cut{0};
    for (unsigned t = 1; t < threads; ++t) {
      const std::size_t share = ops.size() * t / threads;
      const auto it = std::lower_bound(run_start.begin(), run_start.end() - 1, share);
      cut.push_back(std::max(cut.back(), static_cast<std::size_t>(it - run_start.begin())));
    }
    cut.push_back(runs);
    std::vector<UpdateStats> locals(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { apply_runs(cut[t], cut[t + 1], locals[t]); });
    }
    for (auto& w : workers) w.join();
    for (const auto& local : locals) {
      stats.updates += local.updates;
      stats.inserts += local.inserts;
      stats.deletes += local.deletes;
      stats.failed += local.failed;
      stats.fine_path_ops += local.fine_path_ops;
      stats.coarse_path_ops += local.coarse_path_ops;
      stats.coarse_retries += local.coarse_retries;
    }
  }
  stats.apply_seconds = timer.elapsed_seconds();

  timer.reset();
  if (rebuild_needed_) rebuild(stats);
  stats.rebuild_seconds = timer.elapsed_seconds();
  return stats;
}

void BatchUpdater::rebuild(UpdateStats& stats) {
  const HarmoniaTree& old = tree_;
  const unsigned kpn = old.keys_per_node();
  const auto target = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(static_cast<double>(kpn) * rebuild_fill_)),
      1, kpn);
  HARMONIA_CHECK_MSG(target <= kpn, "overfull leaf in rebuild");  // aux chunks fit a node
  const std::uint32_t old_leaves = old.num_leaves();
  const Key* old_keys = old.key_region().data() + std::size_t{old.first_leaf_index()} * kpn;
  const Value* old_vals = old.value_region().data();

  // Pass 1: the new leaf level's min keys. An unchanged leaf becomes one
  // leaf; an auxiliary node is chunked into target-fill leaves (a split
  // yields two or more; a merged-away leaf yields none).
  std::vector<Key> leaf_min;
  leaf_min.reserve(old_leaves + old_leaves / 8);
  std::uint32_t first_changed = old_leaves;
  for (std::uint32_t li = 0; li < old_leaves; ++li) {
    if (aux_[li]) {
      first_changed = std::min(first_changed, li);
      ++stats.aux_nodes;
      const auto& entries = aux_[li]->entries;
      for (std::size_t i = 0; i < entries.size(); i += target) {
        leaf_min.push_back(entries[i].key);
      }
    } else {
      const Key first = old_keys[std::size_t{li} * kpn];
      HARMONIA_CHECK_MSG(first != kPadKey, "empty leaf in rebuild");
      leaf_min.push_back(first);
    }
  }
  HARMONIA_CHECK_MSG(!leaf_min.empty(), "batch removed every key from the tree");

  // Pass 2: write every slot of the leaf level once, straight into the
  // new regions, checking the keys ascend globally as they go. Unchanged
  // leaves move as whole kpn-slot records (kPadKey / zero-value tails
  // included); aux chunks slot by slot, then their padded tails.
  HarmoniaTree rebuilt =
      HarmoniaTree::with_leaf_level(leaf_min, old.fanout(),
                                    HarmoniaTree::rebuild_grouping(old.fanout()),
                                    std::move(retired_));
  Key* keys = rebuilt.key_region_.data() + std::size_t{rebuilt.first_leaf_} * kpn;
  Value* vals = rebuilt.value_region_.data();
  std::uint64_t num_keys = 0;
  Key prev = 0;
  bool have_prev = false;
  const auto ascending = [&](Key k) {
    HARMONIA_CHECK_MSG(!have_prev || k > prev, "rebuilt leaf level not globally ascending");
    prev = k;
    have_prev = true;
  };
  for (std::uint32_t li = 0; li < old_leaves; ++li) {
    if (aux_[li]) {
      const auto& entries = aux_[li]->entries;
      for (std::size_t i = 0; i < entries.size(); i += target) {
        const std::size_t take = std::min(target, entries.size() - i);
        for (std::size_t s = 0; s < take; ++s) {
          ascending(entries[i + s].key);
          keys[s] = entries[i + s].key;
          vals[s] = entries[i + s].value;
        }
        std::fill(keys + take, keys + kpn, kPadKey);
        std::fill(vals + take, vals + kpn, Value{0});
        keys += kpn;
        vals += kpn;
      }
      num_keys += entries.size();
    } else {
      const std::size_t base = std::size_t{li} * kpn;
      std::copy_n(old_keys + base, kpn, keys);
      std::copy_n(old_vals + base, kpn, vals);
      unsigned count = 0;
      while (count < kpn && keys[count] != kPadKey) ascending(keys[count++]);
      num_keys += count;
      keys += kpn;
      vals += kpn;
    }
  }
  rebuilt.num_keys_ = num_keys;

  // Deferred-movement accounting: everything from the first structurally
  // changed leaf onward moves, plus all internal nodes (their prefix-sum
  // entries and separators are regenerated).
  const std::uint64_t unchanged =
      static_cast<std::uint64_t>(first_changed) * kpn;
  stats.moved_slots +=
      static_cast<std::uint64_t>(rebuilt.num_nodes()) * kpn - std::min<std::uint64_t>(
          unchanged, static_cast<std::uint64_t>(rebuilt.num_nodes()) * kpn);
  stats.rebuilt = true;

  // The old regions become the next rebuild's buffers: refilling pages
  // already mapped beats freeing them and faulting in fresh ones.
  retired_ = std::exchange(tree_, std::move(rebuilt));
#ifndef NDEBUG
  // The structural invariant at the rebuild boundary, checked wherever
  // HARMONIA_DCHECK is on.
  tree_.validate();
#endif
  aux_.clear();
  aux_.resize(tree_.num_leaves());
  // The leaf locks are all free between batches; reallocate them only
  // when the leaf count outgrows them.
  if (tree_.num_leaves() > fine_count_) {
    fine_count_ = tree_.num_leaves() + tree_.num_leaves() / 8;
    fine_ = std::make_unique<std::mutex[]>(fine_count_);
  }
  rebuild_needed_ = false;
}

}  // namespace harmonia
