// Workflow configuration files. The paper's developers write map/update
// functions "then a configuration file that includes the workflow graph"
// (§3); Appendix A's operators are constructed from (config, name) so one
// class can back several named functions. This loader reproduces that
// split: operator *code* registers factories under type names in an
// OperatorRegistry; a JSON document declares the graph and binds each
// function name to a registered type.
//
// Example document:
//
// {
//   "input_streams": ["S1"],
//   "streams": ["S2"],
//   "settings": {"threshold": 4},
//   "operators": [
//     {"name": "M1", "type": "retailer_mapper", "kind": "map",
//      "subscribes": ["S1"]},
//     {"name": "U1", "type": "counter", "kind": "update",
//      "subscribes": ["S2"], "slate_ttl_ms": 0,
//      "flush_policy": "interval", "flush_interval_ms": 100}
//   ]
// }
#ifndef MUPPET_CORE_CONFIG_LOADER_H_
#define MUPPET_CORE_CONFIG_LOADER_H_

#include <map>
#include <string>

#include "common/status.h"
#include "core/topology.h"

namespace muppet {

// Registry of operator implementations by type name. The same registry is
// typically process-global and filled at startup by the application's
// operator library.
class OperatorRegistry {
 public:
  OperatorRegistry() = default;

  Status RegisterMapper(const std::string& type, MapperFactory factory);
  Status RegisterUpdater(const std::string& type, UpdaterFactory factory);

  bool HasMapper(const std::string& type) const;
  bool HasUpdater(const std::string& type) const;

  const MapperFactory* FindMapper(const std::string& type) const;
  const UpdaterFactory* FindUpdater(const std::string& type) const;

 private:
  std::map<std::string, MapperFactory> mappers_;
  std::map<std::string, UpdaterFactory> updaters_;
};

// Parse a JSON workflow document and populate `config`, resolving each
// operator's "type" through `registry`. The result still needs
// AppConfig::Validate() (called here as the final step). Errors carry the
// offending field.
Status LoadAppConfigFromJson(const std::string& json_text,
                             const OperatorRegistry& registry,
                             AppConfig* config);

// Serialize the declarative part of a config back to JSON (operator types
// are not recoverable — they are code — so "type" is omitted; useful for
// introspection/status pages).
std::string AppConfigToJson(const AppConfig& config);

}  // namespace muppet

#endif  // MUPPET_CORE_CONFIG_LOADER_H_
