// Paper §5, Example 6: relieve a hotspot updater by splitting its key.
//
// "Suppose, hypothetically, that a lot of people are checking into Best
// Buy" — 90% of this stream's checkins hit one retailer. The mapper
// splits the hot key round-robin into N sub-keys counted independently;
// the partial counts are re-aggregated under the original key by a
// second updater.
//
//   build/examples/hotspot_split
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "core/keysplit.h"
#include "core/slate.h"
#include "engine/muppet2.h"
#include "json/json.h"
#include "workload/checkins.h"

namespace {

constexpr char kHot[] = "Best Buy";

void BuildApp(muppet::AppConfig* config, int shards) {
  using muppet::Bytes;
  using muppet::Event;
  using muppet::Json;
  using muppet::JsonSlate;
  using muppet::PerformerUtilities;

  (void)config->DeclareInputStream("checkins");
  (void)config->DeclareStream("by_subkey");
  (void)config->DeclareStream("partials");

  (void)config->AddMapper(
      "split",
      [shards](const muppet::AppConfig&, const std::string& name) {
        // Round-robin cursor; atomic because a 2.0 machine runs its one
        // mapper instance on every pool thread.
        auto next = std::make_shared<std::atomic<uint64_t>>(0);
        return std::make_unique<muppet::LambdaMapper>(
            name, [shards, next](PerformerUtilities& out, const Event& e) {
              if (shards > 1 && e.key == kHot) {
                const uint64_t n =
                    next->fetch_add(1, std::memory_order_relaxed);
                (void)out.Publish(
                    "by_subkey",
                    muppet::MakeSplitKey(e.key, static_cast<int>(n % shards)),
                    e.value);
              } else {
                (void)out.Publish("by_subkey", e.key, e.value);
              }
            });
      },
      {"checkins"});

  // Partial counters report every event (report_every=1 keeps the demo
  // exact; raise it to amortize the aggregation hotspot).
  (void)config->AddUpdater(
      "partial",
      muppet::MakeUpdaterFactory([](PerformerUtilities& out, const Event& e,
                                    const Bytes* slate) {
        JsonSlate s(slate);
        s.data()["count"] = s.data().GetInt("count") + 1;
        (void)out.ReplaceSlate(s.Serialize());
        Bytes base = e.key;
        int shard = 0;
        Bytes parsed;
        if (muppet::ParseSplitKey(e.key, &parsed, &shard).ok()) base = parsed;
        Json delta = Json::MakeObject();
        delta["delta"] = 1;
        (void)out.Publish("partials", base, delta.Dump());
      }),
      {"by_subkey"});

  (void)config->AddUpdater(
      "total",
      muppet::MakeUpdaterFactory([](PerformerUtilities& out, const Event& e,
                                    const Bytes* slate) {
        muppet::Result<Json> payload = Json::Parse(e.value);
        if (!payload.ok()) return;
        JsonSlate s(slate);
        s.data()["count"] =
            s.data().GetInt("count") + payload.value().GetInt("delta");
        (void)out.ReplaceSlate(s.Serialize());
      }),
      {"partials"});
}

}  // namespace

int main() {
  std::printf("hot-key splitting (Example 6): 20k checkins, 90%% at %s\n\n",
              kHot);
  std::printf("%-8s %-14s %-12s %-10s\n", "shards", "hot_count", "exact",
              "subkeys");
  for (int shards : {1, 2, 4, 8}) {
    muppet::AppConfig config;
    BuildApp(&config, shards);
    muppet::EngineOptions options;
    options.num_machines = 4;
    options.threads_per_machine = 2;
    options.queue_capacity = 1 << 16;
    muppet::Muppet2Engine engine(config, options);
    if (!engine.Start().ok()) return 1;

    muppet::workload::CheckinOptions gen_options;
    gen_options.retailer_fraction = 1.0;
    gen_options.hot_retailer = 2;  // Best Buy
    gen_options.hot_fraction = 0.9;
    muppet::workload::CheckinGenerator gen(gen_options, 1000);
    int64_t truth = 0;
    for (int i = 0; i < 20000; ++i) {
      const muppet::workload::Checkin c = gen.Next();
      if (c.retailer == kHot) ++truth;
      if (!engine.Publish("checkins", c.retailer, c.json, c.ts).ok()) {
        return 1;
      }
    }
    if (!engine.Drain().ok()) return 1;

    int64_t total = -1;
    muppet::Result<muppet::Bytes> slate = engine.FetchSlate("total", kHot);
    if (slate.ok()) {
      muppet::JsonSlate s(&slate.value());
      total = s.data().GetInt("count");
    }
    // How many sub-key slates actually exist?
    int live_subkeys = 0;
    for (int shard = 0; shard < shards; ++shard) {
      if (engine
              .FetchSlate("partial",
                          shards > 1 ? muppet::MakeSplitKey(kHot, shard)
                                     : muppet::Bytes(kHot))
              .ok()) {
        ++live_subkeys;
      }
    }
    std::printf("%-8d %-14lld %-12s %-10d\n", shards,
                static_cast<long long>(total),
                total == truth ? "yes" : "NO", live_subkeys);
    if (!engine.Stop().ok()) return 1;
  }
  std::printf("\nthe split spreads the hot key over independent updaters "
              "(and machines),\nwhile the re-aggregated total stays exact "
              "— the associative/commutative\ntrick the paper describes.\n");
  return 0;
}
