// Extension E14: what the multi-tenant QoS front-end buys under overload
// (docs/serving.md#multi-tenant-qos).
//
// The same mixed point/scan Poisson stream — three tenants, one per
// priority class — replays at a grid of arrival rates spanning the
// uncontended regime and a >= 2x-capacity overload. With QoS on, batch
// formation is weighted-fair across class lanes and the admission
// budget's overload evictions land on the lowest queued class first, so
// the gold tenant's tail should barely move while bronze absorbs the
// entire shed. The per-class columns come straight from the report's
// class ledger, so the isolation claim is auditable row by row. With
// --check the binary enforces the acceptance gate itself: at the highest
// rate the stream must actually shed, every shed request must be bronze,
// gold must see no drops at all, and gold's p99 must stay within 2x its
// uncontended p99.
#include "bench_common.hpp"

#include "qos/priority.hpp"
#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

/// "1,4" -> {1.0, 4.0}.
std::vector<double> parse_rate_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size", "18")
      .flag("requests", "requests per run", "10000")
      .flag("rates", "comma list of arrival rates (Mq/s); first row is the "
                     "uncontended baseline, the last should overload", "1,8")
      .flag("scan-frac", "online-scan fraction of the stream", "0.15")
      .flag("scan-n", "results each scan asks for", "16")
      .flag("shards", "simulated devices (1 = one device, one shard)", "1")
      .flag("max-batch", "batch size trigger", "512")
      .flag("queue-cap", "admission queue capacity (per request kind)", "1024")
      .flag("gold-weight", "gold dispatch weight (silver 3, bronze 1)", "8")
      .flag("fanout", "tree fanout", "64")
      .flag("seed", "workload seed", "1")
      .flag("check", "fail unless gold p99 stays within 2x its uncontended "
                     "p99 at the top rate with every shed request bronze",
            "false")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  hb::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  const std::uint64_t requests = cli.get_uint("requests", 10000);
  const auto rates = parse_rate_list(cli.get_string("rates", "1,8"));
  const bool check = cli.get_bool("check", false);

  hb::print_header("QoS sweep: arrival rate x priority class",
                   "extension E14 (multi-tenant QoS front-end)");

  shard::TopologySpec topo;
  topo.log2_keys = cli.get_uint("size", 18);
  topo.fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  topo.shards = static_cast<unsigned>(cli.get_uint("shards", 1));
  topo.seed = cli.get_uint("seed", 1);
  topo.device = hb::bench_spec();
  const bool observe = !cli.get_string("metrics-out", "").empty();
  obs::MetricsRegistry metrics;

  Table table({"rate (Mq/s)", "class", "arrivals", "completed", "shed",
               "dropped", "p50 (us)", "p99 (us)", "achieved (Mq/s)"});

  bool gate_ok = true;
  double gold_p99_base = 0.0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    serve::ServeOptions cfg;
    cfg.batch.max_batch = cli.get_uint("max-batch", 512);
    cfg.batch.queue_capacity = cli.get_uint("queue-cap", 1024);
    cfg.qos.enabled = true;
    cfg.qos.classes[0] = {cli.get_double("gold-weight", 8), 1.0};
    cfg.qos.classes[1] = {3.0, 2.0};
    cfg.qos.classes[2] = {1.0, 4.0};
    // The gate isolates the scheduler's weighted-fair + eviction policy;
    // per-tenant throttling stays off so every drop is the scheduler's.
    cfg.qos.tenant_rate = 0.0;
    // Only the last (overload) row feeds the registry: earlier rows rerun
    // the same stream and would double-count in the sweep totals.
    if (observe && r + 1 == rates.size()) cfg.obs.metrics = &metrics;

    // Fresh stack per cell: every rate must start from the same tree.
    shard::ServingStack stack(topo, cfg);

    serve::OpenLoopSpec spec;
    spec.arrivals_per_second = rates[r] * 1e6;
    spec.count = requests;
    spec.scan_fraction = cli.get_double("scan-frac", 0.15);
    spec.scan_n = static_cast<std::uint32_t>(cli.get_uint("scan-n", 16));
    spec.tenants = 3;  // one tenant per class (tenant t -> class t % 3)
    spec.seed = cli.get_uint("seed", 1) + 7;
    const auto stream = serve::make_open_loop(stack.keys(), spec);

    const auto rep = stack.backend().run(stream);
    rep.check_invariants();

    const double gold_p99 = rep.class_latency[0].empty()
                                ? 0.0
                                : rep.class_latency[0].percentile(99);
    if (r == 0) gold_p99_base = gold_p99;
    const bool top = r + 1 == rates.size();
    if (check && top && rates.size() > 1) {
      if (rep.shed == 0) {
        std::cerr << "CHECK FAILED: the top rate (" << rates[r]
                  << " Mq/s) shed nothing — not an overload\n";
        gate_ok = false;
      }
      if (rep.class_shed[0] != 0 || rep.class_shed[1] != 0) {
        std::cerr << "CHECK FAILED: shed landed above bronze (gold "
                  << rep.class_shed[0] << ", silver " << rep.class_shed[1]
                  << ")\n";
        gate_ok = false;
      }
      if (rep.class_dropped[0] != 0) {
        std::cerr << "CHECK FAILED: gold saw " << rep.class_dropped[0]
                  << " drops under overload\n";
        gate_ok = false;
      }
      if (gold_p99 > 2.0 * gold_p99_base) {
        std::cerr << "CHECK FAILED: gold p99 " << gold_p99 * 1e6
                  << " us exceeds 2x its uncontended p99 "
                  << gold_p99_base * 1e6 << " us\n";
        gate_ok = false;
      }
    }

    for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
      const auto& lat = rep.class_latency[c];
      table.add(rates[r], qos::to_string(qos::priority_at(c)),
                rep.class_arrivals[c], rep.class_completed[c],
                rep.class_shed[c], rep.class_dropped[c],
                lat.empty() ? 0.0 : lat.percentile(50) * 1e6,
                lat.empty() ? 0.0 : lat.percentile(99) * 1e6,
                rep.query_throughput() / 1e6);
    }
  }
  hb::emit(cli, table);
  hb::maybe_dump_metrics(cli, metrics);
  std::cout << "\nexpected: at the uncontended rate the three classes serve"
            << " near-identically; past capacity bronze (weight 1, stretched"
            << " deadline) absorbs the entire shed and its tail balloons,"
            << " silver degrades gently, and gold's p99 barely moves\n";
  if (check && !gate_ok) return 1;
  return 0;
}
