#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- SpanLog ----

SpanLog::SpanLog() : origin_(wall_now()) {}

std::int64_t SpanLog::open(const std::string& name, std::int64_t parent,
                           std::uint64_t request, double virt) {
  const double t = wall_now() - origin_;
  spans_.push_back({name, parent, request, t, t, virt, virt});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t id, double virt) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.host_end = wall_now() - origin_;
  if (virt != 0.0) s.virt_end = virt;
}

void SpanLog::write_csv(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "id,name,parent,request,host_start_s,host_end_s,virt_start_s,virt_end_s\n";
  out.precision(12);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << s.parent << ',';
    if (s.request == kNoRequest)
      out << "";
    else
      out << s.request;
    out << ',' << s.host_start << ',' << s.host_end << ',' << s.virt_start << ','
        << s.virt_end << '\n';
  }
  if (!out) throw std::runtime_error("short write of span dump " + path.string());
}

std::vector<SpanLog::Layer> SpanLog::layers() const {
  // Children of one span run sequentially on this thread, so the part of
  // the parent they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      child_time[static_cast<std::size_t>(s.parent)] += s.host_end - s.host_start;
  std::vector<Layer> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back({s.name, 0, 0.0, 0.0});
    Layer& l = out[it->second];
    const double dur = s.host_end - s.host_start;
    ++l.count;
    l.total_s += dur;
    l.self_s += dur - child_time[i];
  }
  return out;
}

void print_layer_table(const SpanLog& spans) {
  std::printf("\nlayer table (benchmark-side spans, host wall)\n");
  std::printf("  %-26s %10s %12s %12s\n", "span", "count", "total s", "self s");
  for (const auto& l : spans.layers())
    std::printf("  %-26s %10llu %12.6f %12.6f\n", l.name.c_str(),
                static_cast<unsigned long long>(l.count), l.total_s, l.self_s);
}

// ---- Oracle ----

Oracle::Oracle(std::vector<Key> sorted_keys)
    : base_(std::move(sorted_keys)), live_(base_.size(), 1) {}

std::size_t Oracle::base_index(Key key) const {
  const auto it = std::lower_bound(base_.begin(), base_.end(), key);
  if (it == base_.end() || *it != key) return std::string::npos;
  return static_cast<std::size_t>(it - base_.begin());
}

Value Oracle::base_value(std::size_t i) const {
  const auto o = overrides_.find(base_[i]);
  return o != overrides_.end() ? o->second : harmonia::btree::value_for_key(base_[i]);
}

void Oracle::apply(const harmonia::queries::UpdateOp& op) {
  using harmonia::queries::OpKind;
  const std::size_t i = base_index(op.key);
  if (i != std::string::npos) {
    if (op.kind == OpKind::kDelete) {
      live_[i] = 0;
    } else if (op.kind == OpKind::kInsert || live_[i]) {
      overrides_[op.key] = op.value;
      live_[i] = 1;
    }
    return;
  }
  const auto a = added_.find(op.key);
  if (op.kind == OpKind::kInsert)
    added_[op.key] = op.value;
  else if (op.kind == OpKind::kUpdate && a != added_.end())
    a->second = op.value;
  else if (op.kind == OpKind::kDelete && a != added_.end())
    added_.erase(a);
}

std::optional<Value> Oracle::get(Key key) const {
  const std::size_t i = base_index(key);
  if (i != std::string::npos) {
    if (live_[i]) return base_value(i);
    return std::nullopt;
  }
  const auto a = added_.find(key);
  if (a != added_.end()) return a->second;
  return std::nullopt;
}

std::vector<Value> Oracle::scan(Key lo, std::size_t n) const {
  std::vector<Value> out;
  auto b = static_cast<std::size_t>(std::lower_bound(base_.begin(), base_.end(), lo) -
                                    base_.begin());
  auto a = added_.lower_bound(lo);
  while (out.size() < n) {
    while (b < base_.size() && !live_[b]) ++b;
    const bool has_b = b < base_.size();
    const bool has_a = a != added_.end();
    if (!has_b && !has_a) break;
    if (has_a && (!has_b || a->first < base_[b])) {
      out.push_back(a->second);
      ++a;
    } else {
      out.push_back(base_value(b));
      ++b;
    }
  }
  return out;
}

std::vector<harmonia::btree::Entry> Oracle::entries() const {
  std::vector<harmonia::btree::Entry> out;
  out.reserve(base_.size() + added_.size());
  for (std::size_t i = 0; i < base_.size(); ++i)
    if (live_[i]) out.push_back({base_[i], base_value(i)});
  for (const auto& [k, v] : added_) out.push_back({k, v});
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.key < y.key; });
  return out;
}

// ---- small statistics ----

void KernelVariants::add(harmonia::HarmoniaIndex& index, std::span<const Key> batch,
                         const harmonia::QueryOptions& reference_options) {
  harmonia::QueryOptions unsorted_options = reference_options;
  unsorted_options.psa = harmonia::PsaMode::kNone;
  harmonia::QueryOptions wide_options = reference_options;
  wide_options.auto_ntg = false;
  wide_options.group_size = 0;  // the fanout-based group of traditional designs
  index.device().flush_caches();
  reference += index.search(batch, reference_options).kernel_seconds;
  index.device().flush_caches();
  unsorted += index.search(batch, unsorted_options).kernel_seconds;
  index.device().flush_caches();
  wide += index.search(batch, wide_options).kernel_seconds;
}

void KernelTally::add(const harmonia::gpusim::KernelMetrics& m) {
  steps += m.steps;
  coherent += m.coherent_steps;
  loads += m.loads;
  divergent += m.divergent_loads;
  tx += m.transactions;
  dram += m.dram_transactions;
  l2 += m.l2_hits;
  readonly += m.readonly_hits;
  constant += m.const_hits;
}

double percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // An infinite sample (a dropped request) keeps the percentile infinite.
  if (frac == 0.0 || xs[lo] == xs[hi]) return xs[lo];
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(xs, 50.0); }

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
