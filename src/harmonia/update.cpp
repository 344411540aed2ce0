#include "harmonia/update.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "common/timer.hpp"

namespace harmonia {

using queries::OpKind;
using queries::UpdateOp;

BatchUpdater::BatchUpdater(HarmoniaTree tree, double rebuild_fill)
    : tree_(std::move(tree)), rebuild_fill_(rebuild_fill) {
  HARMONIA_CHECK_MSG(rebuild_fill > 0.0 && rebuild_fill <= 1.0,
                     "rebuild fill factor must be in (0, 1]");
  aux_.resize(tree_.num_leaves());
  fine_ = std::make_unique<std::mutex[]>(tree_.num_leaves());
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

}  // namespace

void BatchUpdater::apply_one(const UpdateOp& op, UpdateStats& local) {
  // Routing reads only internal levels, which a batch never mutates, so
  // no lock is needed to locate the leaf.
  const std::uint32_t leaf = tree_.find_leaf(op.key);
  const std::uint32_t li = leaf - tree_.first_leaf_index();

  auto bump = [](std::uint64_t& counter) { ++counter; };

  switch (op.kind) {
    case OpKind::kUpdate: {
      fine_enter();
      bool ok;
      {
        std::lock_guard<std::mutex> lk(fine_[li]);
        ok = aux_[li] ? aux_update(aux_[li]->entries, op.key, op.value)
                      : tree_.leaf_update_inplace(leaf, op.key, op.value);
      }
      fine_exit();
      bump(local.updates);
      bump(local.fine_path_ops);
      if (!ok) bump(local.failed);
      return;
    }

    case OpKind::kInsert: {
      // Optimistically try the fine path: an in-place insert succeeds
      // whenever the leaf still has a free slot and is not split-marked.
      bool need_split = false;
      fine_enter();
      {
        std::lock_guard<std::mutex> lk(fine_[li]);
        if (aux_[li]) {
          need_split = true;  // leaf status is "split": use the aux node
        } else {
          need_split = !tree_.leaf_insert_inplace(leaf, op.key, op.value);
        }
      }
      fine_exit();
      if (!need_split) {
        bump(local.inserts);
        bump(local.fine_path_ops);
        return;
      }
      coarse_section(local, [&] {
        // Re-check under exclusivity: another coarse op may have already
        // split this leaf into an aux node.
        if (!aux_[li]) {
          aux_[li] = std::make_unique<AuxNode>();
          aux_[li]->entries = tree_.leaf_entries(leaf);
        }
        aux_upsert(aux_[li]->entries, op.key, op.value);
        rebuild_needed_ = true;
      });
      bump(local.inserts);
      bump(local.coarse_path_ops);
      return;
    }

    case OpKind::kDelete: {
      // Fine path while the leaf keeps at least one key; emptying a leaf
      // is a merge and takes the coarse path.
      bool done = false;
      bool ok = false;
      fine_enter();
      {
        std::lock_guard<std::mutex> lk(fine_[li]);
        if (aux_[li]) {
          if (aux_[li]->entries.size() > 1) {
            ok = aux_erase(aux_[li]->entries, op.key);
            done = true;
          }
        } else if (tree_.node_key_count(leaf) > 1) {
          ok = tree_.leaf_erase_inplace(leaf, op.key);
          done = true;
        }
      }
      fine_exit();
      if (!done) {
        coarse_section(local, [&] {
          if (!aux_[li]) {
            aux_[li] = std::make_unique<AuxNode>();
            aux_[li]->entries = tree_.leaf_entries(leaf);
          }
          ok = aux_erase(aux_[li]->entries, op.key);
          rebuild_needed_ = true;
        });
        bump(local.coarse_path_ops);
      } else {
        bump(local.fine_path_ops);
      }
      bump(local.deletes);
      if (!ok) bump(local.failed);
      return;
    }
  }
}

UpdateStats BatchUpdater::apply(std::span<const UpdateOp> ops, unsigned threads) {
  HARMONIA_CHECK(threads >= 1);
  UpdateStats stats;
  WallTimer timer;

  if (threads == 1) {
    for (const auto& op : ops) apply_one(op, stats);
  } else {
    // Ops on one key do not commute (insert-then-delete is not
    // delete-then-insert), so each key belongs to one worker, which
    // applies its ops in arrival order. A Fibonacci hash spreads keys
    // whose low bits repeat.
    std::vector<std::vector<std::size_t>> owned(threads);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint64_t h = ops[i].key * 0x9E3779B97F4A7C15ULL;
      owned[(h >> 32) % threads].push_back(i);
    }
    std::vector<UpdateStats> locals(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([this, &ops, &owned, &locals, t] {
        for (std::size_t i : owned[t]) apply_one(ops[i], locals[t]);
      });
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

  // Pass 1: the new leaf level's min keys and key count. An unchanged leaf
  // becomes one leaf; an auxiliary node is chunked into target-fill leaves
  // (a split yields two or more; a merged-away leaf yields none).
  std::vector<Key> leaf_min;
  leaf_min.reserve(old_leaves + old_leaves / 8);
  std::uint64_t num_keys = 0;
  std::uint32_t first_changed = old_leaves;
  Key prev = 0;
  bool have_prev = false;
  const auto ascending = [&](Key k) {
    HARMONIA_CHECK_MSG(!have_prev || k > prev, "rebuilt leaf level not globally ascending");
    prev = k;
    have_prev = true;
  };
  for (std::uint32_t li = 0; li < old_leaves; ++li) {
    if (aux_[li]) {
      first_changed = std::min(first_changed, li);
      ++stats.aux_nodes;
      const auto& entries = aux_[li]->entries;
      for (std::size_t i = 0; i < entries.size(); i += target) {
        leaf_min.push_back(entries[i].key);
      }
      for (const btree::Entry& e : entries) ascending(e.key);
      num_keys += entries.size();
    } else {
      const Key* slots = old_keys + std::size_t{li} * kpn;
      unsigned count = 0;
      while (count < kpn && slots[count] != kPadKey) ascending(slots[count++]);
      HARMONIA_CHECK_MSG(count > 0, "empty leaf in rebuild");
      leaf_min.push_back(slots[0]);
      num_keys += count;
    }
  }
  HARMONIA_CHECK_MSG(!leaf_min.empty(), "batch removed every key from the tree");

  // Pass 2: write the leaf level straight into the new regions. Unchanged
  // leaves move as whole kpn-slot records (their kPadKey / zero-value
  // tails are already what the new region holds); aux chunks slot by slot.
  HarmoniaTree rebuilt =
      HarmoniaTree::with_leaf_level(leaf_min, old.fanout(), std::move(retired_));
  rebuilt.num_keys_ = num_keys;
  Key* keys = rebuilt.key_region_.data() + std::size_t{rebuilt.first_leaf_} * kpn;
  Value* vals = rebuilt.value_region_.data();
  for (std::uint32_t li = 0; li < old_leaves; ++li) {
    if (aux_[li]) {
      const auto& entries = aux_[li]->entries;
      for (std::size_t i = 0; i < entries.size(); i += target) {
        const std::size_t take = std::min(target, entries.size() - i);
        for (std::size_t s = 0; s < take; ++s) {
          keys[s] = entries[i + s].key;
          vals[s] = entries[i + s].value;
        }
        keys += kpn;
        vals += kpn;
      }
    } else {
      const std::size_t base = std::size_t{li} * kpn;
      std::copy_n(old_keys + base, kpn, keys);
      std::copy_n(old_vals + base, kpn, vals);
      keys += kpn;
      vals += kpn;
    }
  }

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
  fine_ = std::make_unique<std::mutex[]>(tree_.num_leaves());
  rebuild_needed_ = false;
}

}  // namespace harmonia
