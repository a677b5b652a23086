// Muppet 1.0 (§4.1–4.4). Each worker is the paper's pair of tightly coupled
// processes: a *conductor* (Muppet logistics: its input queue, slate
// fetches, hashing and enqueueing output events) and a *task processor*
// (runs the map/update code). We model the pair as one thread whose
// conductor half talks to the task-processor half exclusively through
// serialized byte buffers, reproducing 1.0's IPC copy cost; each worker
// also constructs its own operator instance and owns its own slate-cache
// partition, reproducing 1.0's duplicated code/cache memory (§4.5).
#ifndef MUPPET_ENGINE_MUPPET1_H_
#define MUPPET_ENGINE_MUPPET1_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/heat.h"
#include "engine/machine_runtime.h"

namespace muppet {

namespace engine_internal {

// The "JVM task processor": owns one operator instance for one function and
// processes serialized requests into serialized responses. Shared by both
// the real Muppet1Engine and its tests.
class TaskProcessor {
 public:
  TaskProcessor(const AppConfig& config, const OperatorSpec& spec);

  // Request:  len-prefixed event bytes, u8 has_slate, [len-prefixed slate].
  // Response: varint32 n_outputs, n * len-prefixed event bytes,
  //           u8 slate_action (0 none / 1 replace / 2 delete),
  //           [len-prefixed slate if action==1].
  Status Process(BytesView request, Bytes* response);

  static void EncodeRequest(const Event& event, const Bytes* slate,
                            Bytes* out);
  struct Response {
    std::vector<Event> outputs;
    uint8_t slate_action = 0;  // 0 none, 1 replace, 2 delete
    Bytes slate;
  };
  static Status DecodeResponse(BytesView data, Response* out);

  const OperatorSpec& spec() const { return spec_; }

 private:
  class CollectingUtilities;

  const AppConfig& config_;
  const OperatorSpec& spec_;
  std::unique_ptr<Mapper> mapper_;
  std::unique_ptr<Updater> updater_;
};

}  // namespace engine_internal

class Muppet1Engine final : public MachineRuntime {
 public:
  // `config` must outlive the engine and Validate() OK at Start().
  Muppet1Engine(const AppConfig& config, EngineOptions options);
  ~Muppet1Engine() override;

  Result<Bytes> FetchSlate(const std::string& updater,
                           BytesView key) override;
  // Heat observation only: Muppet 1.0 never splits keys (load_manager
  // control loops are 2.0-only), so rows report split=false.
  std::vector<HotKeyInfo> HotKeys() const override;
  // 1.0 runs no load-management control loop; nothing to pause.
  void PauseLoadManagement() override {}

 private:
  struct Worker {
    std::string function;
    OperatorKind kind = OperatorKind::kMapper;
    WorkerRef ref;
    std::unique_ptr<EventQueue> queue;
    std::unique_ptr<engine_internal::TaskProcessor> task;
    std::unique_ptr<SlateCache> cache;  // updaters only
    UpdaterOptions updater_options;
    // Per-operator processed counter (registry child, set at Start()).
    Counter* processed_counter = nullptr;
  };

  // A machine's workers in slot order; worker i drains lane i.
  struct MachineCtx : MachineBase {
    std::vector<std::unique_ptr<Worker>> workers;
    // (function, slot) -> worker for incoming dispatch.
    std::map<std::pair<std::string, int32_t>, Worker*> by_slot;
  };

  MachineCtx* Ctx(MachineId m) const {
    return static_cast<MachineCtx*>(Machine(m));
  }

  // MachineRuntime hooks.
  Status PrepareEngine() override;
  Status BuildMachine(MachineId id,
                      std::unique_ptr<MachineBase>* machine) override;
  // The conductor loop of the lane's worker.
  void RunLane(MachineBase* machine, size_t lane) override;
  // Routes over the steady-state (no-failures) ring to the owning worker:
  // the records were written by this machine's workers under stable
  // membership, so their keys route back to the same slots.
  SlateCache* ReplayCache(MachineBase* machine, const std::string& updater,
                          BytesView key) override;
  void RegisterEngineMetrics() override;
  void DeliverPublished(Event event) override;

  Status ProcessOne(Worker* worker, const Event& event, uint64_t dedup);

  // Route an emitted/published event to all subscribers of its stream.
  // `sender` is the emitting worker (nullptr for external publishes).
  void DeliverEvent(MachineId from, const Worker* sender, const Event& event);

  // Send one routed event to a specific worker, applying failure handling
  // and the overflow policy.
  void SendToWorker(MachineId from, const Worker* sender,
                    const std::string& function, const Event& event);

  Status HandleIncoming(MachineId to, BytesView payload);

  // The worker that owns (function, key) over the ring view `failed`.
  Result<Worker*> RouteToWorker(const std::string& function, BytesView key,
                                const std::set<MachineId>& failed) const;

  // Engine-wide heat sketch (created at Start() when
  // options_.load_manager.enabled; 1.0 has no per-machine dispatch point,
  // every send funnels through SendToWorker). The sketch keys on a dense
  // function id; 1.0 has no interner, so Start() builds this ad-hoc map.
  std::unique_ptr<HeatTracker> heat_;
  std::map<std::string, int32_t> heat_fn_ids_;
  std::vector<std::string> heat_fn_names_;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_MUPPET1_H_
