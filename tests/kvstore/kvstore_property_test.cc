// Model-based property test: a random sequence of Put/Delete/Get/Flush/
// Compact against the storage shard must agree with a trivial
// in-memory model, across a grid of store configurations (memtable size,
// auto-compaction). This is the kvstore's main
// correctness net: any divergence between LSM mechanics (shadowing,
// tombstones, merges) and the model is a bug.
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "kvstore/node.h"
#include "tests/test_util.h"

namespace muppet {
namespace kv {
namespace {

using ::muppet::testing::TempDir;

// (memtable_bytes, auto_compact)
using StoreParams = std::tuple<size_t, bool>;

class KvStorePropertyTest : public ::testing::TestWithParam<StoreParams> {};

TEST_P(KvStorePropertyTest, RandomOpsMatchModel) {
  const auto [memtable_bytes, auto_compact] = GetParam();
  TempDir dir;
  NodeOptions options;
  options.data_dir = dir.path();
  options.memtable_flush_bytes = memtable_bytes;
  options.auto_compact = auto_compact;
  StorageNode node(options);
  ASSERT_OK(node.Open());
  auto shard_or = node.GetColumnFamily("cf");
  ASSERT_OK(shard_or);
  Shard* shard = shard_or.value();

  std::map<std::pair<Bytes, Bytes>, Bytes> model;
  Rng rng(static_cast<uint64_t>(memtable_bytes) * 31 + 7 +
          auto_compact * 3);

  constexpr int kOps = 3000;
  for (int op = 0; op < kOps; ++op) {
    const Bytes row = "row" + std::to_string(rng.Uniform(40));
    const Bytes col = "col" + std::to_string(rng.Uniform(4));
    const uint64_t dice = rng.Uniform(100);
    if (dice < 55) {
      const Bytes value = "v" + std::to_string(op) + "-" +
                          Bytes(rng.Uniform(64), 'x');
      ASSERT_OK(node.Put("cf", row, col, value));
      model[{row, col}] = value;
    } else if (dice < 70) {
      ASSERT_OK(node.Delete("cf", row, col));
      model.erase({row, col});
    } else if (dice < 90) {
      auto got = node.Get("cf", row, col);
      auto it = model.find({row, col});
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound())
            << "op " << op << ": store has a value the model deleted";
      } else {
        ASSERT_OK(got);
        EXPECT_EQ(got.value().value, it->second) << "op " << op;
      }
    } else if (dice < 95) {
      ASSERT_OK(shard->Flush());
    } else {
      ASSERT_OK(shard->CompactAll());
    }
  }

  // Full sweep at the end: every model (row, column) reads back its value,
  // and the full scan holds exactly the model, so the store has no key
  // the model lacks.
  for (const auto& [key, value] : model) {
    auto got = node.Get("cf", key.first, key.second);
    ASSERT_TRUE(got.ok()) << key.first << "/" << key.second << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.value().value, value) << key.first << "/" << key.second;
  }
  std::vector<Record> all;
  ASSERT_OK(shard->ScanAll(&all));
  std::map<std::pair<Bytes, Bytes>, Bytes> scanned;
  for (const Record& rec : all) {
    Bytes row, col;
    ASSERT_TRUE(DecodeStorageKey(rec.key, &row, &col));
    EXPECT_TRUE(scanned.emplace(std::pair(row, col), rec.value).second)
        << "ScanAll repeats " << row << "/" << col;
  }
  EXPECT_EQ(scanned, model);
}

TEST_P(KvStorePropertyTest, ReopenPreservesEverythingWalOn) {
  const auto [memtable_bytes, auto_compact] = GetParam();

  TempDir dir;
  NodeOptions options;
  options.data_dir = dir.path();
  options.memtable_flush_bytes = memtable_bytes;
  options.auto_compact = auto_compact;

  std::map<Bytes, Bytes> model;
  Rng rng(99);
  {
    StorageNode node(options);
    ASSERT_OK(node.Open());
    for (int op = 0; op < 800; ++op) {
      const Bytes row = "r" + std::to_string(rng.Uniform(60));
      if (rng.Chance(0.85)) {
        const Bytes value = "val" + std::to_string(op);
        ASSERT_OK(node.Put("cf", row, "c", value));
        model[row] = value;
      } else {
        ASSERT_OK(node.Delete("cf", row, "c"));
        model.erase(row);
      }
    }
    // No explicit flush: the WAL must carry the memtable across restart.
  }
  StorageNode reopened(options);
  ASSERT_OK(reopened.Open());
  for (int r = 0; r < 60; ++r) {
    const Bytes row = "r" + std::to_string(r);
    auto got = reopened.Get("cf", row, "c");
    auto it = model.find(row);
    if (it == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << row;
    } else {
      ASSERT_OK(got);
      EXPECT_EQ(got.value().value, it->second) << row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, KvStorePropertyTest,
    ::testing::Combine(
        ::testing::Values<size_t>(2 << 10, 64 << 10, 4 << 20),
        ::testing::Bool()),  // auto-compaction
    [](const ::testing::TestParamInfo<StoreParams>& info) {
      // Every run writes through the WAL, as every node does.
      return "mem" + std::to_string(std::get<0>(info.param) / 1024) +
             "k_wal_" +
             (std::get<1>(info.param) ? std::string("compact")
                                      : std::string("nocompact"));
    });

}  // namespace
}  // namespace kv
}  // namespace muppet
