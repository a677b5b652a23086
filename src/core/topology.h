// Application configuration: the "configuration file that includes the
// workflow graph" (§3). An application declares streams, map and update
// functions (with the streams each subscribes to), per-updater slate
// parameters (TTL, flush policy — §4.2), and free-form settings the
// operator factories can read.
//
// The workflow is a directed graph, cycles allowed: nodes are functions,
// edges are streams. Because operators publish dynamically, the static
// graph is defined by declarations: an event emitted to stream S is
// delivered to every function subscribed to S.
#ifndef MUPPET_CORE_TOPOLOGY_H_
#define MUPPET_CORE_TOPOLOGY_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/operator.h"
#include "json/json.h"

namespace muppet {

// When dirty slates are pushed to the durable key-value store (§4.2:
// "ranging from 'immediate write-through' to 'only when evicted from
// cache'").
enum class SlateFlushPolicy : uint8_t {
  kWriteThrough,  // every update writes to the store immediately
  kInterval,      // background flush of slates dirty longer than interval
  kOnEvict,       // only when evicted from the slate cache
};

// Whether an updater's computation commutes and associates over events of
// one key (paper §5, Example 6: counting is both). Only such updaters may
// be key-split by the load manager: their per-shard partial slates can be
// re-aggregated in any order without changing the result.
enum class Associativity : uint8_t {
  kNone,                    // order-sensitive; never split
  kAssociativeCommutative,  // partial slates merge via `merger`
};

// Folds a partial (shard) slate into an accumulator slate. `base` is
// nullptr when no accumulator exists yet (the merge result is then
// typically `part` itself). Must be pure: engines call it under slate
// locks, possibly concurrently for different keys.
using SlateMerger =
    std::function<Bytes(const Bytes* base, const Bytes& part)>;

struct UpdaterOptions {
  // Slate time-to-live; 0 = forever (§3). The store may garbage-collect a
  // slate not written for longer than this; the updater then sees nullptr
  // and re-initializes.
  Timestamp slate_ttl_micros = 0;
  SlateFlushPolicy flush_policy = SlateFlushPolicy::kInterval;
  // For kInterval: how long a slate may stay dirty before being flushed.
  Timestamp flush_interval_micros = 100 * kMicrosPerMilli;
  // Declares the updater safe for dynamic key splitting. When set to
  // kAssociativeCommutative, `merger` must be provided (Validate checks).
  Associativity associativity = Associativity::kNone;
  SlateMerger merger;
};

enum class OperatorKind : uint8_t { kMapper, kUpdater };

struct OperatorSpec {
  std::string name;
  OperatorKind kind;
  std::vector<std::string> subscriptions;  // streams fed to this function
  MapperFactory mapper_factory;            // kind == kMapper
  UpdaterFactory updater_factory;          // kind == kUpdater
  UpdaterOptions updater_options;          // kind == kUpdater
};

class AppConfig {
 public:
  AppConfig() = default;

  // Declare an external input stream (events enter via Engine::Publish;
  // no operator may publish into it — that restriction is what makes
  // source throttling deadlock-free, §5).
  Status DeclareInputStream(const std::string& sid);

  // Declare an internal stream (produced by operators).
  Status DeclareStream(const std::string& sid);

  Status AddMapper(const std::string& name, MapperFactory factory,
                   std::vector<std::string> subscriptions);

  Status AddUpdater(const std::string& name, UpdaterFactory factory,
                    std::vector<std::string> subscriptions,
                    UpdaterOptions options = {});

  // Check the workflow: unique names, every subscription refers to a
  // declared stream, every declared input stream exists, at least one
  // operator.
  Status Validate() const;

  // Accessors used by engines.
  const std::map<std::string, OperatorSpec>& operators() const {
    return operators_;
  }
  const OperatorSpec* FindOperator(const std::string& name) const;
  bool HasStream(const std::string& sid) const;
  bool IsInputStream(const std::string& sid) const;
  // Operator names subscribed to `sid`, sorted (deterministic fan-out).
  std::vector<std::string> SubscribersOf(const std::string& sid) const;
  std::vector<std::string> InputStreams() const;
  std::vector<std::string> AllStreams() const;

  // Free-form application settings, readable by operator factories
  // (mirrors the `Config` object of the paper's Appendix A).
  Json& settings() { return settings_; }
  const Json& settings() const { return settings_; }

 private:
  Status DeclareStreamInternal(const std::string& sid, bool is_input);

  std::map<std::string, OperatorSpec> operators_;
  std::set<std::string> streams_;
  std::set<std::string> input_streams_;
  // stream -> sorted subscriber names.
  std::map<std::string, std::set<std::string>> subscribers_;
  Json settings_ = Json::MakeObject();
};

}  // namespace muppet

#endif  // MUPPET_CORE_TOPOLOGY_H_
