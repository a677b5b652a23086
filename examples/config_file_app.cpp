// The paper's §3 developer workflow, end to end: "To write a MapUpdate
// application, a developer writes the necessary map and update functions,
// then a configuration file that includes the workflow graph."
//
// The functions below register themselves in an OperatorRegistry under
// type names; the workflow graph comes from a JSON document (here written
// to disk and read back, as a deployment would).
//
//   build/examples/config_file_app
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/config_loader.h"
#include "core/slate.h"
#include "engine/muppet2.h"
#include "json/json.h"

namespace {

constexpr char kWorkflow[] = R"({
  "input_streams": ["lines"],
  "streams": ["words"],
  "settings": {"min_word_length": 3},
  "operators": [
    {"name": "tokenize", "type": "tokenizer", "kind": "map",
     "subscribes": ["lines"]},
    {"name": "count", "type": "word_counter", "kind": "update",
     "subscribes": ["words"], "flush_policy": "interval",
     "flush_interval_ms": 50}
  ]
})";

// The application's operator library.
void RegisterOperators(muppet::OperatorRegistry* registry) {
  // The tokenizer reads its minimum word length from the config settings,
  // the Appendix A "constructed using a configuration object" pattern.
  (void)registry->RegisterMapper(
      "tokenizer",
      [](const muppet::AppConfig& config, const std::string& name) {
        const int64_t min_len = config.settings().GetInt("min_word_length");
        return std::make_unique<muppet::LambdaMapper>(
            name, [min_len](muppet::PerformerUtilities& out,
                            const muppet::Event& e) {
              std::istringstream line{std::string(e.value)};
              std::string word;
              while (line >> word) {
                if (static_cast<int64_t>(word.size()) >= min_len) {
                  (void)out.Publish("words", word, "");
                }
              }
            });
      });
  (void)registry->RegisterUpdater(
      "word_counter",
      muppet::MakeUpdaterFactory([](muppet::PerformerUtilities& out,
                                    const muppet::Event&,
                                    const muppet::Bytes* slate) {
        muppet::JsonSlate s(slate);
        s.data()["count"] = s.data().GetInt("count") + 1;
        (void)out.ReplaceSlate(s.Serialize());
      }));
}

}  // namespace

int main() {
  // Write the config file, as a deployment would ship it.
  const std::string config_path =
      (std::filesystem::temp_directory_path() / "muppet_workflow.json")
          .string();
  {
    std::ofstream out(config_path);
    out << kWorkflow;
  }

  muppet::OperatorRegistry registry;
  RegisterOperators(&registry);

  std::string config_text;
  {
    std::ifstream in(config_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    config_text = buffer.str();
  }
  muppet::AppConfig config;
  muppet::Status s =
      muppet::LoadAppConfigFromJson(config_text, registry, &config);
  if (!s.ok()) {
    std::fprintf(stderr, "config error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("loaded workflow from %s:\n%s\n\n", config_path.c_str(),
              muppet::AppConfigToJson(config).c_str());

  muppet::EngineOptions options;
  options.num_machines = 2;
  options.threads_per_machine = 2;
  muppet::Muppet2Engine engine(config, options);
  if (!engine.Start().ok()) return 1;

  const char* lines[] = {
      "the quick brown fox jumps over the lazy dog",
      "fast data needs fast frameworks",
      "the fox likes fast data",
  };
  muppet::Timestamp ts = 1;
  for (const char* line : lines) {
    if (!engine.Publish("lines", "src", line, ts++).ok()) return 1;
  }
  if (!engine.Drain().ok()) return 1;

  std::printf("word counts (words of length >= 3):\n");
  for (const char* word : {"the", "fox", "fast", "data", "quick"}) {
    muppet::Result<muppet::Bytes> slate = engine.FetchSlate("count", word);
    if (slate.ok()) {
      muppet::JsonSlate state(&slate.value());
      std::printf("  %-8s %lld\n", word,
                  static_cast<long long>(state.data().GetInt("count")));
    }
  }
  std::filesystem::remove(config_path);
  return engine.Stop().ok() ? 0 : 1;
}
