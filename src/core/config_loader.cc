#include "core/config_loader.h"

#include "json/json.h"

namespace muppet {

Status OperatorRegistry::RegisterMapper(const std::string& type,
                                        MapperFactory factory) {
  if (factory == nullptr) {
    return Status::InvalidArgument("registry: null mapper factory");
  }
  if (mappers_.count(type) > 0 || updaters_.count(type) > 0) {
    return Status::AlreadyExists("registry: type '" + type +
                                 "' already registered");
  }
  mappers_[type] = std::move(factory);
  return Status::OK();
}

Status OperatorRegistry::RegisterUpdater(const std::string& type,
                                         UpdaterFactory factory) {
  if (factory == nullptr) {
    return Status::InvalidArgument("registry: null updater factory");
  }
  if (mappers_.count(type) > 0 || updaters_.count(type) > 0) {
    return Status::AlreadyExists("registry: type '" + type +
                                 "' already registered");
  }
  updaters_[type] = std::move(factory);
  return Status::OK();
}

bool OperatorRegistry::HasMapper(const std::string& type) const {
  return mappers_.count(type) > 0;
}

bool OperatorRegistry::HasUpdater(const std::string& type) const {
  return updaters_.count(type) > 0;
}

const MapperFactory* OperatorRegistry::FindMapper(
    const std::string& type) const {
  auto it = mappers_.find(type);
  return it == mappers_.end() ? nullptr : &it->second;
}

const UpdaterFactory* OperatorRegistry::FindUpdater(
    const std::string& type) const {
  auto it = updaters_.find(type);
  return it == updaters_.end() ? nullptr : &it->second;
}

namespace {

Status ParseFlushPolicy(const std::string& text, SlateFlushPolicy* policy) {
  if (text == "write_through") {
    *policy = SlateFlushPolicy::kWriteThrough;
  } else if (text == "interval" || text.empty()) {
    *policy = SlateFlushPolicy::kInterval;
  } else if (text == "on_evict") {
    *policy = SlateFlushPolicy::kOnEvict;
  } else {
    return Status::InvalidArgument("config: unknown flush_policy '" + text +
                                   "'");
  }
  return Status::OK();
}

}  // namespace

Status LoadAppConfigFromJson(const std::string& json_text,
                             const OperatorRegistry& registry,
                             AppConfig* config) {
  Result<Json> parsed = Json::Parse(json_text);
  if (!parsed.ok()) return parsed.status();
  const Json& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("config: document must be an object");
  }

  if (doc.Contains("settings")) {
    config->settings() = doc["settings"];
  }

  const Json& inputs = doc["input_streams"];
  if (!inputs.is_array()) {
    return Status::InvalidArgument("config: input_streams must be an array");
  }
  for (const Json& sid : inputs.AsArray()) {
    if (!sid.is_string()) {
      return Status::InvalidArgument("config: stream ids must be strings");
    }
    MUPPET_RETURN_IF_ERROR(config->DeclareInputStream(sid.AsString()));
  }
  if (doc.Contains("streams")) {
    const Json& streams = doc["streams"];
    if (!streams.is_array()) {
      return Status::InvalidArgument("config: streams must be an array");
    }
    for (const Json& sid : streams.AsArray()) {
      if (!sid.is_string()) {
        return Status::InvalidArgument("config: stream ids must be strings");
      }
      MUPPET_RETURN_IF_ERROR(config->DeclareStream(sid.AsString()));
    }
  }

  const Json& operators = doc["operators"];
  if (!operators.is_array()) {
    return Status::InvalidArgument("config: operators must be an array");
  }
  for (const Json& op : operators.AsArray()) {
    if (!op.is_object()) {
      return Status::InvalidArgument("config: operator entries are objects");
    }
    const std::string name = op.GetString("name");
    const std::string type = op.GetString("type");
    const std::string kind = op.GetString("kind");
    if (name.empty() || type.empty()) {
      return Status::InvalidArgument(
          "config: operator needs 'name' and 'type'");
    }
    std::vector<std::string> subscriptions;
    const Json& subs = op["subscribes"];
    if (!subs.is_array()) {
      return Status::InvalidArgument("config: operator '" + name +
                                     "' needs a 'subscribes' array");
    }
    for (const Json& sid : subs.AsArray()) {
      if (!sid.is_string()) {
        return Status::InvalidArgument("config: stream ids must be strings");
      }
      subscriptions.push_back(sid.AsString());
    }

    if (kind == "map") {
      const MapperFactory* factory = registry.FindMapper(type);
      if (factory == nullptr) {
        return Status::NotFound("config: no registered mapper type '" +
                                type + "' (operator '" + name + "')");
      }
      MUPPET_RETURN_IF_ERROR(
          config->AddMapper(name, *factory, std::move(subscriptions)));
    } else if (kind == "update") {
      const UpdaterFactory* factory = registry.FindUpdater(type);
      if (factory == nullptr) {
        return Status::NotFound("config: no registered updater type '" +
                                type + "' (operator '" + name + "')");
      }
      UpdaterOptions updater_options;
      updater_options.slate_ttl_micros =
          op.GetInt("slate_ttl_ms") * kMicrosPerMilli;
      MUPPET_RETURN_IF_ERROR(ParseFlushPolicy(
          op.GetString("flush_policy"), &updater_options.flush_policy));
      if (op.Contains("flush_interval_ms")) {
        updater_options.flush_interval_micros =
            op.GetInt("flush_interval_ms") * kMicrosPerMilli;
      }
      MUPPET_RETURN_IF_ERROR(config->AddUpdater(
          name, *factory, std::move(subscriptions), updater_options));
    } else {
      return Status::InvalidArgument("config: operator '" + name +
                                     "' has unknown kind '" + kind +
                                     "' (want 'map' or 'update')");
    }
  }

  return config->Validate();
}

std::string AppConfigToJson(const AppConfig& config) {
  Json doc = Json::MakeObject();
  doc["settings"] = config.settings();
  Json inputs = Json::MakeArray();
  for (const std::string& sid : config.InputStreams()) inputs.Append(sid);
  doc["input_streams"] = std::move(inputs);
  Json streams = Json::MakeArray();
  for (const std::string& sid : config.AllStreams()) {
    if (!config.IsInputStream(sid)) streams.Append(sid);
  }
  doc["streams"] = std::move(streams);
  Json operators = Json::MakeArray();
  for (const auto& [name, spec] : config.operators()) {
    Json op = Json::MakeObject();
    op["name"] = name;
    op["kind"] = spec.kind == OperatorKind::kMapper ? "map" : "update";
    Json subs = Json::MakeArray();
    for (const std::string& sid : spec.subscriptions) subs.Append(sid);
    op["subscribes"] = std::move(subs);
    if (spec.kind == OperatorKind::kUpdater) {
      op["slate_ttl_ms"] =
          spec.updater_options.slate_ttl_micros / kMicrosPerMilli;
      switch (spec.updater_options.flush_policy) {
        case SlateFlushPolicy::kWriteThrough:
          op["flush_policy"] = "write_through";
          break;
        case SlateFlushPolicy::kInterval:
          op["flush_policy"] = "interval";
          break;
        case SlateFlushPolicy::kOnEvict:
          op["flush_policy"] = "on_evict";
          break;
      }
    }
    operators.Append(std::move(op));
  }
  doc["operators"] = std::move(operators);
  return doc.DumpPretty();
}

}  // namespace muppet
