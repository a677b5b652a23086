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

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"

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

class Muppet1Engine final : public Engine {
 public:
  // `config` must outlive the engine and Validate() OK at Start().
  Muppet1Engine(const AppConfig& config, EngineOptions options);
  ~Muppet1Engine() override;

 private:
  struct Worker {
    // Interned operator id (Engine::ops_), also its trace label.
    uint32_t op = 0;
    WorkerRef ref;
    std::unique_ptr<EventQueue> queue;
    std::unique_ptr<engine_internal::TaskProcessor> task;
    std::unique_ptr<SlateCache> cache;  // updaters only
  };

  // A machine's workers; a worker's slot is its index here, and worker i
  // drains lane i.
  struct MachineCtx : MachineBase {
    std::vector<std::unique_ptr<Worker>> workers;
  };

  MachineCtx* Ctx(MachineId m) const {
    return static_cast<MachineCtx*>(Machine(m));
  }

  // Worker-model hooks. PrepareEngine rejects the options 1.0 does not
  // run: a hosted subset, an external transport and the load manager.
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
  // §4.4: resolve the owning worker and read its cache (forwarding
  // "internally" — here, direct access), not the durable store.
  Status ReadLiveSlate(uint32_t op, BytesView key,
                       const std::set<MachineId>& failed,
                       Bytes* slate) override;
  void DeliverPublished(Event event) override;

  Status ProcessOne(Worker* worker, const RoutedEvent& re);

  // Route an emitted/published event to all subscribers of its stream.
  // `sender` is the emitting worker (nullptr for external publishes).
  void DeliverEvent(MachineId from, const Worker* sender, const Event& event);

  // Send one event to the worker of operator `op` that owns its key over
  // the ring view `failed`, as a slot-prefixed frame of one through the
  // shared §4.3 send (Engine::SendRouted). `key_hash` is
  // Fnv1a64(event.key).
  void SendToWorker(MachineId from, const Worker* sender, uint32_t op,
                    uint64_t key_hash, const std::set<MachineId>& failed,
                    const Event& event);

  // A 1.0 payload is the destination worker's slot, then a frame of one;
  // push the event onto that worker's queue (ResourceExhausted when it is
  // full).
  Status HandleIncoming(MachineId from, MachineId to, BytesView payload,
                        size_t* accepted);

  // The worker that owns (function, key) over the ring view `failed`.
  Result<Worker*> RouteToWorker(const std::string& function, BytesView key,
                                const std::set<MachineId>& failed) const;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_MUPPET1_H_
