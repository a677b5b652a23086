#include "net/fault.h"

#include <algorithm>

#include "common/hash.h"

namespace muppet {

namespace {

std::string MachineName(MachineId m) {
  return m == kAnyMachine ? std::string("*") : std::to_string(m);
}

// Independent unit-interval roll derived from one content-addressed base.
double UnitRoll(uint64_t base, uint64_t salt) {
  return static_cast<double>(Mix64(base ^ salt) >> 11) * 0x1.0p-53;
}

}  // namespace

std::string FaultRule::ToString() const {
  std::string out = "link " + MachineName(from) + "->" + MachineName(to);
  out += " window=[" + std::to_string(start_micros) + ",";
  out += end_micros == kFaultTimeMax ? "inf" : std::to_string(end_micros);
  out += ")";
  if (drop_probability > 0.0) {
    out += " drop=" + std::to_string(drop_probability);
  }
  if (duplicate_probability > 0.0) {
    out += " dup=" + std::to_string(duplicate_probability);
  }
  if (reorder_probability > 0.0) {
    out += " reorder=" + std::to_string(reorder_probability) +
           " reorder_window=" + std::to_string(reorder_window);
  }
  if (delay_micros > 0) out += " delay=" + std::to_string(delay_micros) + "us";
  return out;
}

std::string FaultAction::ToString() const {
  std::string out = "t=" + std::to_string(at_micros) + " ";
  switch (kind) {
    case Kind::kCrashMachine:
      out += "crash machine " + std::to_string(a);
      break;
    case Kind::kRestartMachine:
      out += "restart machine " + std::to_string(a);
      break;
    case Kind::kPartition:
      out += "partition " + std::to_string(a) + " <-/-> " + std::to_string(b);
      break;
    case Kind::kHeal:
      out += "heal " + std::to_string(a) + " <--> " + std::to_string(b);
      break;
    case Kind::kCrashStoreNode:
      out += "crash store node " + std::to_string(a);
      break;
    case Kind::kRestoreStoreNode:
      out += "restore store node " + std::to_string(a);
      break;
  }
  return out;
}

FaultPlan& FaultPlan::Drop(MachineId from, MachineId to, double p,
                           Timestamp start, Timestamp end) {
  FaultRule r;
  r.from = from;
  r.to = to;
  r.drop_probability = p;
  r.start_micros = start;
  r.end_micros = end;
  rules.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::Duplicate(MachineId from, MachineId to, double p,
                                Timestamp start, Timestamp end) {
  FaultRule r;
  r.from = from;
  r.to = to;
  r.duplicate_probability = p;
  r.start_micros = start;
  r.end_micros = end;
  rules.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::Reorder(MachineId from, MachineId to, double p,
                              uint32_t window, Timestamp start,
                              Timestamp end) {
  FaultRule r;
  r.from = from;
  r.to = to;
  r.reorder_probability = p;
  r.reorder_window = window == 0 ? 1 : window;
  r.start_micros = start;
  r.end_micros = end;
  rules.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::Delay(MachineId from, MachineId to,
                            Timestamp delay_micros, Timestamp start,
                            Timestamp end) {
  FaultRule r;
  r.from = from;
  r.to = to;
  r.delay_micros = delay_micros;
  r.start_micros = start;
  r.end_micros = end;
  rules.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::CrashAt(Timestamp at, MachineId machine) {
  actions.push_back({at, FaultAction::Kind::kCrashMachine, machine});
  return *this;
}

FaultPlan& FaultPlan::RestartAt(Timestamp at, MachineId machine) {
  actions.push_back({at, FaultAction::Kind::kRestartMachine, machine});
  return *this;
}

FaultPlan& FaultPlan::PartitionAt(Timestamp at, MachineId a, MachineId b) {
  actions.push_back({at, FaultAction::Kind::kPartition, a, b});
  return *this;
}

FaultPlan& FaultPlan::HealAt(Timestamp at, MachineId a, MachineId b) {
  actions.push_back({at, FaultAction::Kind::kHeal, a, b});
  return *this;
}

FaultPlan& FaultPlan::CrashStoreNodeAt(Timestamp at, int node) {
  actions.push_back({at, FaultAction::Kind::kCrashStoreNode,
                     static_cast<MachineId>(node)});
  return *this;
}

FaultPlan& FaultPlan::RestoreStoreNodeAt(Timestamp at, int node) {
  actions.push_back({at, FaultAction::Kind::kRestoreStoreNode,
                     static_cast<MachineId>(node)});
  return *this;
}

std::string FaultPlan::ToString() const {
  std::string out = "fault plan seed=" + std::to_string(seed) + "\n";
  for (const FaultRule& r : rules) out += "  rule:   " + r.ToString() + "\n";
  std::vector<FaultAction> sorted = actions;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.at_micros < y.at_micros;
                   });
  for (const FaultAction& a : sorted) {
    out += "  action: " + a.ToString() + "\n";
  }
  if (rules.empty() && actions.empty()) out += "  (no faults)\n";
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, Clock* clock)
    : plan_(std::move(plan)), clock_(clock) {
  std::stable_sort(plan_.actions.begin(), plan_.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.at_micros < y.at_micros;
                   });
}

FaultDecision FaultInjector::OnMessage(MachineId from, MachineId to,
                                       BytesView payload,
                                       uint64_t signature) {
  FaultDecision d;
  if (plan_.rules.empty()) return d;
  const Timestamp now = clock_->Now();

  // Content-addressed roll base: link + content + occurrence index. The
  // occurrence map is the only shared state touched per message.
  const uint64_t content = signature != 0 ? signature : Fnv1a64(payload);
  const uint64_t link =
      HashCombine(static_cast<uint64_t>(from) + 0x9e3779b97f4a7c15ULL,
                  static_cast<uint64_t>(to) + 1);
  const uint64_t key = HashCombine(link, content);
  uint32_t occ = 0;
  {
    MutexLock lock(mutex_);
    occ = occurrence_[key]++;
  }
  const uint64_t base =
      Mix64(plan_.seed ^ key) ^ Mix64(static_cast<uint64_t>(occ) + 0x51edULL);

  for (const FaultRule& rule : plan_.rules) {
    if (!rule.Matches(from, to, now)) continue;
    d.extra_delay_micros += rule.delay_micros;
    if (d.verdict != FaultDecision::Verdict::kDeliver) continue;
    if (rule.drop_probability > 0.0 &&
        UnitRoll(base, 0xD401ULL) < rule.drop_probability) {
      d.verdict = FaultDecision::Verdict::kDrop;
    } else if (rule.duplicate_probability > 0.0 &&
               UnitRoll(base, 0xD402ULL) < rule.duplicate_probability) {
      d.verdict = FaultDecision::Verdict::kDuplicate;
    } else if (rule.reorder_probability > 0.0 &&
               UnitRoll(base, 0xD403ULL) < rule.reorder_probability) {
      d.verdict = FaultDecision::Verdict::kHold;
      d.hold_for =
          1 + static_cast<uint32_t>(Mix64(base ^ 0xD404ULL) %
                                    rule.reorder_window);
    }
  }

  switch (d.verdict) {
    case FaultDecision::Verdict::kDrop:
      dropped_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultDecision::Verdict::kDuplicate:
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultDecision::Verdict::kHold:
      held_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultDecision::Verdict::kDeliver:
      break;
  }
  if (d.extra_delay_micros > 0) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

bool FaultInjector::Partitioned(MachineId a, MachineId b) const {
  MutexLock lock(mutex_);
  if (partitions_.empty()) return false;
  return partitions_.count(NormalizePair(a, b)) > 0;
}

std::vector<FaultAction> FaultInjector::TakeDueActions() {
  const Timestamp now = clock_->Now();
  std::vector<FaultAction> due;
  MutexLock lock(mutex_);
  while (next_action_ < plan_.actions.size() &&
         plan_.actions[next_action_].at_micros <= now) {
    const FaultAction& a = plan_.actions[next_action_++];
    if (a.kind == FaultAction::Kind::kPartition) {
      partitions_.insert(NormalizePair(a.a, a.b));
    } else if (a.kind == FaultAction::Kind::kHeal) {
      partitions_.erase(NormalizePair(a.a, a.b));
    }
    due.push_back(a);
  }
  return due;
}

}  // namespace muppet
