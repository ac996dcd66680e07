#ifndef PERFBENCH_TIMED_BACKEND_H_
#define PERFBENCH_TIMED_BACKEND_H_

// The benchmark's view of the storage transport: a StorageBackend decorator
// handed to the schemes through SchemeConfig::backend_factory. It counts
// every exchange a client submits (always: the output checks need the
// per-operation shape), and in traced runs also times Submit and Wait and
// records one span per operation and one per exchange.

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "storage/backend.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one operation sent to storage: the adversary-visible shape that
/// must not depend on the index the operation asked for.
struct OpShape {
  uint32_t downloads = 0;
  uint32_t blocks_down = 0;
  uint32_t uploads = 0;
  uint32_t blocks_up = 0;
  uint32_t evals = 0;

  friend bool operator==(const OpShape&, const OpShape&) = default;
};

/// Cumulative exchange counters of one client (non-empty exchanges only:
/// an empty exchange never leaves the client).
struct ExchangeCounters {
  void Count(dpstore::StorageRequest::Op op, uint64_t blocks);

  uint64_t downloads = 0;
  uint64_t uploads = 0;
  uint64_t evals = 0;
  uint64_t blocks_down = 0;
  uint64_t blocks_up = 0;
  uint64_t awaited_uploads = 0;
  // Traced runs only: nanoseconds spent inside the transport.
  int64_t submit_ns = 0;
  int64_t download_wait_ns = 0;  ///< blocked in Wait, per exchange kind
  int64_t upload_wait_ns = 0;
  int64_t eval_wait_ns = 0;
  int64_t exchange_ns = 0;  ///< Submit start to Wait return, any kind
  int64_t backend_ns = 0;   ///< inside Submit or Wait, any kind

  friend ExchangeCounters operator-(ExchangeCounters a,
                                    const ExchangeCounters& b);
  ExchangeCounters& operator+=(const ExchangeCounters& o);
};

/// One recorded span. Operation spans have kind kOp and a label; exchange
/// spans carry the id of the operation that caused them.
struct Span {
  enum Kind : uint8_t { kOp = 0, kDownload = 1, kUpload = 2, kEval = 3 };
  uint8_t kind = kOp;
  uint8_t label = 0;  ///< operation label (workload-defined) for kOp
  uint32_t client = 0;
  uint64_t op_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-client recorder. Touched only by that client's thread, except
/// between phases when the client threads are parked.
class ClientRecorder {
 public:
  ClientRecorder(uint32_t client, bool traced, size_t span_budget);

  void BeginOp(uint64_t op_id);
  /// Closes the current operation; records its span when traced.
  void EndOp(uint8_t label);
  const OpShape& shape() const { return shape_; }

  bool traced() const { return traced_; }
  ExchangeCounters counters;
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }

  // Called by TimedBackend.
  void OnSubmit(dpstore::StorageRequest::Op op, uint64_t blocks);
  /// Test hook for the benchmark's self-test: perturbs the current shape.
  void CorruptShape() { ++shape_.blocks_down; }
  /// When set, the serialized key of every DPF eval submitted is appended
  /// here (the engine replay's sample for the eval workload).
  std::vector<std::vector<uint8_t>>* eval_capture = nullptr;
  void AddSpan(Span::Kind kind, int64_t start_ns, int64_t end_ns,
               uint8_t label = 0);

 private:
  uint32_t client_;
  bool traced_;
  size_t span_budget_;
  uint64_t op_id_ = 0;
  int64_t op_start_ns_ = 0;
  OpShape shape_;
  std::vector<Span> spans_;
  uint64_t dropped_spans_ = 0;
};

/// StorageBackend decorator feeding a ClientRecorder.
class TimedBackend : public dpstore::StorageBackend {
 public:
  TimedBackend(std::unique_ptr<dpstore::StorageBackend> inner,
               ClientRecorder* recorder);

  uint64_t n() const override { return inner_->n(); }
  size_t block_size() const override { return inner_->block_size(); }
  dpstore::Status SetArray(std::vector<dpstore::Block> blocks) override {
    return inner_->SetArray(std::move(blocks));
  }
  dpstore::Ticket Submit(dpstore::StorageRequest request) override;
  dpstore::StatusOr<dpstore::StorageReply> Wait(dpstore::Ticket ticket) override;
  void BeginQuery() override { inner_->BeginQuery(); }
  const dpstore::Transcript& transcript() const override {
    return inner_->transcript();
  }
  void ResetTranscript() override { inner_->ResetTranscript(); }
  void SetTranscriptCountingOnly(bool counting_only) override {
    inner_->SetTranscriptCountingOnly(counting_only);
  }
  dpstore::Block PeekBlock(dpstore::BlockId index) const override {
    return inner_->PeekBlock(index);
  }
  void CorruptBlock(dpstore::BlockId index) override {
    inner_->CorruptBlock(index);
  }
  void SetFailureRate(double rate, uint64_t seed = 7) override {
    inner_->SetFailureRate(rate, seed);
  }
  double MeasuredWallMs() const override { return inner_->MeasuredWallMs(); }
  uint64_t RetriedAttempts() const override {
    return inner_->RetriedAttempts();
  }

  /// Exchanges that went through this backend alone (counts only), so a
  /// client with several replicas can be matched against each server.
  const ExchangeCounters& own() const { return own_; }

 protected:
  dpstore::StatusOr<dpstore::StorageReply> Execute(
      dpstore::StorageRequest request) override {
    return Wait(Submit(std::move(request)));
  }

 private:
  struct Pending {
    dpstore::Ticket ticket = 0;
    dpstore::StorageRequest::Op op = dpstore::StorageRequest::Op::kDownload;
    int64_t submit_ns = 0;
  };

  std::unique_ptr<dpstore::StorageBackend> inner_;
  ClientRecorder* recorder_;
  ExchangeCounters own_;
  std::vector<Pending> pending_;
};

/// Wraps every backend `inner` builds in a TimedBackend feeding `recorder`
/// and appends it to `built` (build order; the schemes own the backends).
dpstore::BackendFactory TimedFactory(dpstore::BackendFactory inner,
                                     ClientRecorder* recorder,
                                     std::vector<TimedBackend*>* built);

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_BACKEND_H_
