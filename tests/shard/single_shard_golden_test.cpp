// Golden outputs of single-shard serving. Each preset runs one fixed
// stream through ServingStack{shards = 1} and pins a digest of every
// field of every Response plus the ServerReport counters and
// epoch-pipeline seconds. The values were captured from the dedicated
// single-device backend that 1-shard topologies used before they were
// routed through ShardedServer, so they hold the one serving engine to
// exactly the replies that backend gave. queue_depth is left out: it is
// a sampling statistic, not an outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "../persist/test_dir.hpp"
#include "queries/workload.hpp"
#include "serve/options.hpp"
#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"

namespace harmonia::shard {
namespace {

TopologySpec golden_topo() {
  TopologySpec topo;
  topo.log2_keys = 12;
  topo.fanout = 16;
  topo.shards = 1;
  topo.seed = 7;
  return topo;
}

class Fnv {
 public:
  template <typename T>
  void mix(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 1099511628211ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Every field of every response, in request-id order.
std::uint64_t response_digest(const serve::ServerReport& rep) {
  std::vector<const serve::Response*> order;
  for (const auto& r : rep.responses) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; });
  Fnv h;
  for (const serve::Response* r : order) {
    h.mix(r->id);
    h.mix(static_cast<std::uint8_t>(r->kind));
    h.mix(r->tenant);
    h.mix(static_cast<std::uint8_t>(r->klass));
    h.mix(static_cast<std::uint8_t>(r->dropped));
    h.mix(r->epoch);
    h.mix(r->arrival);
    h.mix(r->dispatch);
    h.mix(r->completion);
    h.mix(r->value);
    h.mix(r->range_values.size());
    for (Value v : r->range_values) h.mix(v);
  }
  return h.value();
}

/// The report's counters and epoch seconds (doubles in hexfloat, exact).
std::string report_text(const serve::ServerReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto arr = [&](const char* name, const auto& a) {
    os << name << '=';
    for (std::size_t c = 0; c < a.size(); ++c) os << (c ? "/" : "") << a[c];
    os << ' ';
  };
  os << "arr=" << r.arrivals << " adm=" << r.admitted << " drop=" << r.dropped
     << " done=" << r.completed << " shed=" << r.shed
     << " upd=" << r.update_requests << " thr=" << r.throttled
     << " batches=" << r.batches << " epochs=" << r.epochs
     << " applied=" << r.updates_applied << " failed=" << r.updates_failed
     << ' ';
  arr("c_arr", r.class_arrivals);
  arr("c_adm", r.class_admitted);
  arr("c_drop", r.class_dropped);
  arr("c_thr", r.class_throttled);
  arr("c_done", r.class_completed);
  arr("c_shed", r.class_shed);
  arr("c_upd", r.class_update_requests);
  os << "bsz=" << r.batch_size.count() << '/' << r.batch_size.sum()
     << " makespan=" << r.makespan << " busy=" << r.busy_seconds
     << " build=" << r.epoch_build_seconds << " upload=" << r.epoch_upload_seconds
     << " swap=" << r.epoch_swap_wait_seconds << " stall=" << r.epoch_stall_seconds
     << " patch=" << r.patch_epochs << '/' << r.epoch_patch_build_seconds << '/'
     << r.epoch_patch_upload_seconds << " compact=" << r.compaction_epochs << '/'
     << r.epoch_compaction_build_seconds << '/'
     << r.epoch_compaction_upload_seconds << " log=" << r.log_batches
     << " snaps=" << r.snapshots_written << " faults=" << r.faults.csv_row();
  return os.str();
}

struct Golden {
  std::uint64_t responses;
  const char* report;
};

void expect_golden(const serve::ServerReport& rep, const Golden& want) {
  const std::uint64_t got = response_digest(rep);
  EXPECT_EQ(got, want.responses)
      << "response digest 0x" << std::hex << got << " (want 0x"
      << want.responses << ")";
  EXPECT_EQ(report_text(rep), want.report);
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "observed: {0x" << std::hex << got << ", \""
                  << report_text(rep) << "\"}";
  }
}

serve::ServerReport run_open(const serve::ServeOptions& opts,
                             const serve::OpenLoopSpec& spec) {
  ServingStack stack(golden_topo(), opts);
  EXPECT_EQ(stack.num_shards(), 1u);
  return stack.backend().run(serve::make_open_loop(stack.keys(), spec));
}

serve::OpenLoopSpec mixed_stream() {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 3e6;
  spec.count = 6000;
  spec.update_fraction = 0.2;
  spec.range_fraction = 0.05;
  spec.range_span = 12;
  spec.seed = 5;
  return spec;
}

/// Enough inserts per epoch to exhaust a 64-entry overlay now and then,
/// so delta runs take both the patch and the compaction path.
serve::OpenLoopSpec insert_heavy_stream() {
  serve::OpenLoopSpec spec = mixed_stream();
  spec.update_fraction = 0.35;
  spec.insert_fraction = 0.8;
  spec.delete_fraction = 0.1;
  return spec;
}

serve::ServeOptions base_options(serve::EpochMode mode) {
  serve::ServeOptions opts;
  opts.batch.max_batch = 256;
  opts.batch.max_wait = 50e-6;
  opts.batch.queue_capacity = 1024;
  opts.batch.max_range_results = 16;
  opts.epoch.max_buffered = 150;
  opts.epoch.max_wait = 200e-6;
  opts.epoch.mode = mode;
  return opts;
}

TEST(SingleShardGolden, Quiesce) {
  const auto rep = run_open(base_options(serve::EpochMode::kQuiesce), mixed_stream());
  expect_golden(rep, {0x6ac879a42a3e2abcULL,
                      "arr=6000 adm=6000 drop=0 done=4854 shed=0 upd=1146 "
                      "thr=0 batches=46 epochs=10 applied=1146 failed=7 "
                      "c_arr=6000/0/0 c_adm=6000/0/0 c_drop=0/0/0 c_thr=0/0/0 "
                      "c_done=4854/0/0 c_shed=0/0/0 c_upd=1146/0/0 "
                      "bsz=46/0x1.2f6p+12 makespan=0x1.16872b3df0953p-9 "
                      "busy=0x1.0ff667172ca79p-9 build=0x1.2c6ac215b9a5ap-12 "
                      "upload=0x1.966f5f500e521p-12 swap=0x0p+0 "
                      "stall=0x1.616d10b2e3fb9p-11 patch=0/0x0p+0/0x0p+0 "
                      "compact=10/0x1.2c6ac215b9a5ap-12/0x1.966f5f500e521p-12 "
                      "log=0 snaps=0 "
                      "faults=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.000,0.000,0.000,0.000,0.000,0,0,0"});
}

TEST(SingleShardGolden, Overlap) {
  const auto rep = run_open(base_options(serve::EpochMode::kOverlap), mixed_stream());
  expect_golden(rep, {0x3263a9cc01de4599ULL,
                      "arr=6000 adm=6000 drop=0 done=4854 shed=0 upd=1146 "
                      "thr=0 batches=64 epochs=10 applied=1146 failed=7 "
                      "c_arr=6000/0/0 c_adm=6000/0/0 c_drop=0/0/0 c_thr=0/0/0 "
                      "c_done=4854/0/0 c_shed=0/0/0 c_upd=1146/0/0 "
                      "bsz=64/0x1.2f6p+12 makespan=0x1.11bd1aa7ae1cep-9 "
                      "busy=0x1.fbbb07794e4e6p-10 build=0x1.2c6ac215b9a5ap-12 "
                      "upload=0x1.966f5f500e521p-12 swap=0x1.38dc29e8b2588p-13 "
                      "stall=0x0p+0 patch=0/0x0p+0/0x0p+0 "
                      "compact=10/0x1.2c6ac215b9a5ap-12/0x1.966f5f500e521p-12 "
                      "log=0 snaps=0 "
                      "faults=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.000,0.000,0.000,0.000,0.000,0,0,0"});
}

TEST(SingleShardGolden, DeltaSmallOverlay) {
  auto opts = base_options(serve::EpochMode::kIncremental);
  opts.epoch.overlay_capacity = 64;
  const auto rep = run_open(opts, insert_heavy_stream());
  expect_golden(rep, {0x2f34fd991d1fa608ULL,
                      "arr=6000 adm=6000 drop=0 done=3942 shed=0 upd=2058 "
                      "thr=0 batches=64 epochs=14 applied=2058 failed=3 "
                      "c_arr=6000/0/0 c_adm=6000/0/0 c_drop=0/0/0 c_thr=0/0/0 "
                      "c_done=3942/0/0 c_shed=0/0/0 c_upd=2058/0/0 "
                      "bsz=64/0x1.eccp+11 makespan=0x1.0e0396bc2f4a7p-9 "
                      "busy=0x1.00255d0391188p-9 build=0x1.2fe0985babf82p-13 "
                      "upload=0x1.a22e5770182fcp-13 swap=0x1.9b3ed68edc84cp-13 "
                      "stall=0x0p+0 "
                      "patch=13/0x1.9022f8528c94ap-14/0x1.4ecd6d869631bp-13 "
                      "compact=1/0x1.9f3c70c996b76p-15/0x1.4d83a7a607f83p-15 "
                      "log=0 snaps=0 "
                      "faults=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.000,0.000,0.000,0.000,0.000,0,0,0"});
}

TEST(SingleShardGolden, ClosedLoop) {
  ServingStack stack(golden_topo(), base_options(serve::EpochMode::kQuiesce));
  serve::ClosedLoopSpec spec;
  spec.clients = 96;
  spec.think_seconds = 20e-6;
  spec.total_requests = 5000;
  spec.dist = queries::Distribution::kZipfian;
  spec.seed = 9;
  serve::ClosedLoopSource source(stack.keys(), spec);
  const auto rep = stack.backend().run(source);
  expect_golden(rep, {0x71a9f8aa7ee22150ULL,
                      "arr=5000 adm=5000 drop=0 done=5000 shed=0 upd=0 thr=0 "
                      "batches=53 epochs=0 applied=0 failed=0 c_arr=5000/0/0 "
                      "c_adm=5000/0/0 c_drop=0/0/0 c_thr=0/0/0 c_done=5000/0/0 "
                      "c_shed=0/0/0 c_upd=0/0/0 bsz=53/0x1.388p+12 "
                      "makespan=0x1.6192a6f038c84p-8 "
                      "busy=0x1.befae676e9d8cp-10 build=0x0p+0 upload=0x0p+0 "
                      "swap=0x0p+0 stall=0x0p+0 patch=0/0x0p+0/0x0p+0 "
                      "compact=0/0x0p+0/0x0p+0 log=0 snaps=0 "
                      "faults=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.000,0.000,0.000,0.000,0.000,0,0,0"});
}

TEST(SingleShardGolden, QosThrottlingAndScans) {
  auto opts = base_options(serve::EpochMode::kQuiesce);
  opts.qos.enabled = true;
  opts.qos.classes[0].weight = 4.0;
  opts.qos.classes[1].weight = 2.0;
  opts.qos.classes[2].weight = 1.0;
  opts.qos.classes[2].deadline_factor = 4.0;
  opts.qos.tenant_rate = 2e5;
  opts.qos.tenant_burst = 16.0;
  auto spec = mixed_stream();
  spec.arrivals_per_second = 8e6;
  spec.tenants = 12;
  spec.scan_fraction = 0.05;
  spec.scan_n = 24;
  const auto rep = run_open(opts, spec);
  expect_golden(rep, {0x5dbb7eeacb2851f4ULL,
                      "arr=6000 adm=3121 drop=2879 done=1975 shed=0 upd=1146 "
                      "thr=2879 batches=74 epochs=8 applied=1146 failed=7 "
                      "c_arr=2088/1934/1978 c_adm=1043/1071/1007 "
                      "c_drop=1045/863/971 c_thr=1045/863/971 "
                      "c_done=659/658/658 c_shed=0/0/0 c_upd=384/413/349 "
                      "bsz=74/0x1.edcp+10 makespan=0x1.70cd16c559cd9p-9 "
                      "busy=0x1.6a3e39c213e9fp-9 build=0x1.2c6ac215b9a5ap-12 "
                      "upload=0x1.4525e5d9a50e7p-12 swap=0x0p+0 "
                      "stall=0x1.38c853f7af5a8p-11 patch=0/0x0p+0/0x0p+0 "
                      "compact=8/0x1.2c6ac215b9a5ap-12/0x1.4525e5d9a50e7p-12 "
                      "log=0 snaps=0 "
                      "faults=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.000,0.000,0.000,0.000,0.000,0,0,0"});
}

constexpr const char* kFaults =
    "slow@0.0003:shard=0,factor=4,duration=0.0006;"
    "fail@0.0001:shard=0,count=2;fail@0.0009:shard=0,count=6;"
    "corrupt@0.0004:shard=0,bytes=8";

TEST(SingleShardGolden, FaultsQuiesce) {
  auto opts = base_options(serve::EpochMode::kQuiesce);
  opts.faults = fault::FaultPlan::parse(kFaults);
  const auto rep = run_open(opts, mixed_stream());
  expect_golden(rep, {0xf62095d1d78ddbc5ULL,
                      "arr=6000 adm=6000 drop=0 done=4598 shed=256 upd=1146 "
                      "thr=0 batches=33 epochs=10 applied=1146 failed=7 "
                      "c_arr=6000/0/0 c_adm=6000/0/0 c_drop=0/0/0 c_thr=0/0/0 "
                      "c_done=4598/0/0 c_shed=256/0/0 c_upd=1146/0/0 "
                      "bsz=33/0x1.2f6p+12 makespan=0x1.93281726a13ddp-9 "
                      "busy=0x1.8c9752ffdd503p-9 build=0x1.2c6ac215b9a5ap-12 "
                      "upload=0x1.597844373f5f3p-11 swap=0x0p+0 "
                      "stall=0x1.efada5421c32dp-11 patch=0/0x0p+0/0x0p+0 "
                      "compact=10/0x1.2c6ac215b9a5ap-12/0x1.597844373f5f3p-11 "
                      "log=0 snaps=0 "
                      "faults=1,8,1,0,1,1,7,1,256,1,0,0,0,0,0,0,0,0,0,0.000,650.000,38.761,0.000,0.000,256,0,0"});
}

TEST(SingleShardGolden, FaultsDelta) {
  auto opts = base_options(serve::EpochMode::kIncremental);
  opts.epoch.overlay_capacity = 64;
  opts.epoch.max_buffered = 400;
  opts.faults = fault::FaultPlan::parse(kFaults);
  const auto rep = run_open(opts, insert_heavy_stream());
  expect_golden(rep, {0x80bc2507db49af85ULL,
                      "arr=6000 adm=5767 drop=233 done=3453 shed=256 upd=2058 "
                      "thr=0 batches=21 epochs=9 applied=2058 failed=3 "
                      "c_arr=6000/0/0 c_adm=5767/0/0 c_drop=233/0/0 "
                      "c_thr=0/0/0 c_done=3453/0/0 c_shed=256/0/0 "
                      "c_upd=2058/0/0 bsz=21/0x1.cfap+11 "
                      "makespan=0x1.1718eb6e3cf88p-9 busy=0x1.03a6a66b7114fp-9 "
                      "build=0x1.369695025b241p-13 "
                      "upload=0x1.4bfbb1c260122p-12 swap=0x1.ffeadcb8b41d2p-11 "
                      "stall=0x0p+0 "
                      "patch=8/0x1.78a6040b277b6p-14/0x1.223adcea45ce1p-12 "
                      "compact=1/0x1.e90e4bf31d996p-15/0x1.4e06a6c0d2206p-15 "
                      "log=0 snaps=0 "
                      "faults=1,8,1,0,9,1,7,1,256,1,0,0,0,0,0,0,0,0,0,0.000,650.000,53.400,0.000,0.000,256,0,0"});
}

TEST(SingleShardGolden, PersistThenRecover) {
  const std::filesystem::path dir = persist::unique_test_dir();
  std::filesystem::remove_all(dir);
  auto opts = base_options(serve::EpochMode::kQuiesce);
  opts.persist.dir = dir.string();
  opts.persist.snapshot_every = 3;
  opts.persist.retain = 2;
  const auto first = run_open(opts, mixed_stream());
  expect_golden(first, {0x6ac879a42a3e2abcULL,
                        "arr=6000 adm=6000 drop=0 done=4854 shed=0 upd=1146 "
                        "thr=0 batches=46 epochs=10 applied=1146 failed=7 "
                        "c_arr=6000/0/0 c_adm=6000/0/0 c_drop=0/0/0 c_thr=0/0/0 "
                        "c_done=4854/0/0 c_shed=0/0/0 c_upd=1146/0/0 "
                        "bsz=46/0x1.2f6p+12 makespan=0x1.16872b3df0953p-9 "
                        "busy=0x1.0ff667172ca79p-9 build=0x1.2c6ac215b9a5ap-12 "
                        "upload=0x1.966f5f500e521p-12 swap=0x0p+0 "
                        "stall=0x1.616d10b2e3fb9p-11 patch=0/0x0p+0/0x0p+0 "
                        "compact=10/0x1.2c6ac215b9a5ap-12/0x1.966f5f500e521p-12 "
                        "log=10 snaps=3 "
                        "faults=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.000,0.000,0.000,0.000,0.000,0,0,0"});

  {
    opts.persist.recover = true;
    ServingStack stack(golden_topo(), opts);
    ASSERT_EQ(stack.recoveries().size(), 1u);
    EXPECT_EQ(stack.recoveries()[0].csv_row(),
              "0,1,9,0,0,0,1,60,0,0,105228,19682,10,0.116216");
    auto spec = mixed_stream();
    spec.seed = 6;
    const auto second =
        stack.backend().run(serve::make_open_loop(stack.keys(), spec));
    expect_golden(second, {0xa77b9356ed6be03fULL,
                           "arr=6000 adm=6000 drop=0 done=4791 shed=0 upd=1209 "
                           "thr=0 batches=45 epochs=10 applied=1209 failed=40 "
                           "c_arr=6000/0/0 c_adm=6000/0/0 c_drop=0/0/0 c_thr=0/0/0 "
                           "c_done=4791/0/0 c_shed=0/0/0 c_upd=1209/0/0 "
                           "bsz=45/0x1.2b7p+12 makespan=0x1.1470d9081d8e6p-9 "
                           "busy=0x1.0db5ead47c015p-9 build=0x1.3cee9dd7ecbb6p-12 "
                           "upload=0x1.966f5f500e521p-12 swap=0x0p+0 "
                           "stall=0x1.69aefe93fd868p-11 patch=0/0x0p+0/0x0p+0 "
                           "compact=10/0x1.3cee9dd7ecbb6p-12/0x1.966f5f500e521p-12 "
                           "log=10 snaps=3 "
                           "faults=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.000,0.000,0.000,0.000,0.000,0,0,0"});
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace harmonia::shard
