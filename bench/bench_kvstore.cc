// E11 (paper §4.2 "Using SSDs and Caching Slates" + write buffering):
//  a) cold-cache slate fetches: random reads on SSD vs HDD device models
//     (simulated clock: latency is charged, not slept);
//  b) write buffering: a larger memtable coalesces repeated overwrites of
//     popular slates, cutting device writes ("it is advantageous ... to
//     delay flushing the writes ... as long as possible");
//  c) read amplification vs compaction: "the more times a row is flushed
//     to disk ... the more files will have to be checked for the row".
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "kvstore/node.h"
#include "workload/zipf_keys.h"

namespace muppet {
namespace bench {
namespace {

void ColdReadLatency() {
  Banner("E11a: cold-cache slate fetch latency, SSD vs HDD (simulated "
         "device time)");
  Table table({"device", "reads", "sim_ms_total", "sim_us/read"});
  for (const bool ssd : {true, false}) {
    ScratchDir dir;
    SimulatedClock clock(1);
    kv::NodeOptions options;
    options.data_dir = dir.path();
    options.device = ssd ? kv::DeviceProfile::Ssd() : kv::DeviceProfile::Hdd();
    options.clock = &clock;
    kv::StorageNode node(options);
    CheckOk(node.Open(), "open");

    // Populate 20k slates and flush them to SSTables (cold state).
    const Bytes slate(512, 's');
    for (int i = 0; i < 20000; ++i) {
      CheckOk(node.Put("slates", "user" + std::to_string(i), "U1", slate),
              "put");
    }
    CheckOk(node.FlushAll(), "flush");

    // Random cold fetches, as at Muppet startup ("early update events may
    // require many row fetches from the key-value store").
    const int64_t before = clock.Now();
    constexpr int kReads = 2000;
    workload::ZipfKeyGenerator keys(20000, 0.0, "user", 3);
    for (int i = 0; i < kReads; ++i) {
      CheckOk(node.Get("slates", keys.Next(), "U1").status(), "get");
    }
    const int64_t elapsed = clock.Now() - before;
    table.Row({ssd ? "SSD" : "HDD", FmtInt(kReads),
               Fmt(static_cast<double>(elapsed) / 1000.0, 1),
               Fmt(static_cast<double>(elapsed) / kReads, 1)});
  }
}

void WriteCoalescing() {
  Banner("E11b: write buffering — device writes per slate update vs "
         "memtable size");
  Table table({"memtable_kb", "updates", "flushes", "dev_writes",
               "bytes_written", "coalesce_x"});
  constexpr int kUpdates = 50000;
  for (const size_t memtable_kb : {16u, 64u, 256u, 1024u}) {
    ScratchDir dir;
    SimulatedClock clock(1);
    kv::NodeOptions options;
    options.data_dir = dir.path();
    options.memtable_flush_bytes = memtable_kb << 10;
    options.device = kv::DeviceProfile::Ssd();
    options.clock = &clock;
    kv::StorageNode node(options);
    CheckOk(node.Open(), "open");
    auto shard = node.GetColumnFamily("slates");
    CheckOk(shard.status(), "cf");

    // Popular slates overwritten repeatedly (Zipf 1.2 over 1000 keys).
    workload::ZipfKeyGenerator keys(1000, 1.2, "hot", 9);
    const Bytes slate(256, 'x');
    for (int i = 0; i < kUpdates; ++i) {
      CheckOk(node.Put("slates", keys.Next(), "U1", slate), "put");
    }
    const double updates_bytes = static_cast<double>(kUpdates) * 256.0;
    table.Row({FmtInt(static_cast<int64_t>(memtable_kb)), FmtInt(kUpdates),
               FmtInt(static_cast<int64_t>(shard.value()->flush_count())),
               FmtInt(node.device().writes()),
               FmtInt(node.device().bytes_written()),
               Fmt(updates_bytes /
                       std::max<double>(
                           1.0, static_cast<double>(
                                    node.device().bytes_written())),
                   2)});
  }
}

void ReadAmplification() {
  Banner("E11c: tables checked per read — compaction on vs off");
  Table table({"auto_compact", "flushes", "sstables", "rand_reads/get"});
  for (const bool compact : {false, true}) {
    ScratchDir dir;
    SimulatedClock clock(1);
    kv::NodeOptions options;
    options.data_dir = dir.path();
    options.memtable_flush_bytes = 32 << 10;
    options.device = kv::DeviceProfile::Ssd();
    options.clock = &clock;
    options.auto_compact = compact;
    kv::StorageNode node(options);
    CheckOk(node.Open(), "open");
    auto shard = node.GetColumnFamily("slates");
    CheckOk(shard.status(), "cf");

    const Bytes slate(256, 'y');
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 500; ++i) {
        CheckOk(node.Put("slates", "row" + std::to_string(i), "U1", slate),
                "put");
      }
    }
    CheckOk(node.FlushAll(), "flush");

    const int64_t reads_before = node.device().random_reads();
    constexpr int kGets = 1000;
    for (int i = 0; i < kGets; ++i) {
      CheckOk(node.Get("slates", "row" + std::to_string(i % 500), "U1")
                  .status(),
              "get");
    }
    const int64_t reads = node.device().random_reads() - reads_before;
    table.Row({compact ? "on" : "off",
               FmtInt(static_cast<int64_t>(shard.value()->flush_count())),
               FmtInt(static_cast<int64_t>(shard.value()->sstable_count())),
               Fmt(static_cast<double>(reads) / kGets, 2)});
  }
  std::printf("\nPaper trends: HDD cold fetches are dominated by seeks "
              "(~100x SSD); bigger\nwrite buffers coalesce hot-slate "
              "overwrites (coalesce_x grows); compaction\nbounds the "
              "number of tables a read must check.\n");
}

void Main() {
  ColdReadLatency();
  WriteCoalescing();
  ReadAmplification();
}

}  // namespace
}  // namespace bench
}  // namespace muppet

int main() {
  muppet::bench::Main();
  return 0;
}
