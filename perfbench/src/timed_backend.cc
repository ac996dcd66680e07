#include "timed_backend.h"

#include <algorithm>

namespace perfbench {

using dpstore::StorageRequest;

ExchangeCounters operator-(ExchangeCounters a, const ExchangeCounters& b) {
  a.downloads -= b.downloads;
  a.uploads -= b.uploads;
  a.evals -= b.evals;
  a.blocks_down -= b.blocks_down;
  a.blocks_up -= b.blocks_up;
  a.awaited_uploads -= b.awaited_uploads;
  a.submit_ns -= b.submit_ns;
  a.download_wait_ns -= b.download_wait_ns;
  a.upload_wait_ns -= b.upload_wait_ns;
  a.eval_wait_ns -= b.eval_wait_ns;
  a.exchange_ns -= b.exchange_ns;
  a.backend_ns -= b.backend_ns;
  return a;
}

ExchangeCounters& ExchangeCounters::operator+=(const ExchangeCounters& o) {
  downloads += o.downloads;
  uploads += o.uploads;
  evals += o.evals;
  blocks_down += o.blocks_down;
  blocks_up += o.blocks_up;
  awaited_uploads += o.awaited_uploads;
  submit_ns += o.submit_ns;
  download_wait_ns += o.download_wait_ns;
  upload_wait_ns += o.upload_wait_ns;
  eval_wait_ns += o.eval_wait_ns;
  exchange_ns += o.exchange_ns;
  backend_ns += o.backend_ns;
  return *this;
}

ClientRecorder::ClientRecorder(uint32_t client, bool traced,
                               size_t span_budget)
    : client_(client), traced_(traced), span_budget_(span_budget) {
  if (traced_) spans_.reserve(span_budget_);
}

void ClientRecorder::BeginOp(uint64_t op_id) {
  op_id_ = op_id;
  shape_ = OpShape{};
  if (traced_) op_start_ns_ = NowNs();
}

void ClientRecorder::EndOp(uint8_t label) {
  if (!traced_) return;
  AddSpan(Span::kOp, op_start_ns_, NowNs(), label);
}

void ExchangeCounters::Count(StorageRequest::Op op, uint64_t blocks) {
  switch (op) {
    case StorageRequest::Op::kDownload:
      ++downloads;
      blocks_down += blocks;
      break;
    case StorageRequest::Op::kUpload:
      ++uploads;
      blocks_up += blocks;
      break;
    case StorageRequest::Op::kDpfEval:
      ++evals;
      break;
  }
}

void ClientRecorder::OnSubmit(StorageRequest::Op op, uint64_t blocks) {
  counters.Count(op, blocks);
  switch (op) {
    case StorageRequest::Op::kDownload:
      ++shape_.downloads;
      shape_.blocks_down += static_cast<uint32_t>(blocks);
      break;
    case StorageRequest::Op::kUpload:
      ++shape_.uploads;
      shape_.blocks_up += static_cast<uint32_t>(blocks);
      break;
    case StorageRequest::Op::kDpfEval:
      ++shape_.evals;
      break;
  }
}

void ClientRecorder::AddSpan(Span::Kind kind, int64_t start_ns,
                             int64_t end_ns, uint8_t label) {
  if (spans_.size() >= span_budget_) {
    ++dropped_spans_;
    return;
  }
  Span span;
  span.kind = kind;
  span.label = label;
  span.client = client_;
  span.op_id = op_id_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

TimedBackend::TimedBackend(std::unique_ptr<dpstore::StorageBackend> inner,
                           ClientRecorder* recorder)
    : inner_(std::move(inner)), recorder_(recorder) {}

dpstore::Ticket TimedBackend::Submit(StorageRequest request) {
  if (request.IsNoOp()) return inner_->Submit(std::move(request));
  const StorageRequest::Op op = request.op;
  if (op == StorageRequest::Op::kDpfEval && recorder_->eval_capture != nullptr) {
    const dpstore::BlockView key = request.payload[0];
    recorder_->eval_capture->emplace_back(key.begin(), key.end());
  }
  recorder_->OnSubmit(op, request.indices.size());
  own_.Count(op, request.indices.size());
  if (!recorder_->traced()) {
    const dpstore::Ticket ticket = inner_->Submit(std::move(request));
    pending_.push_back({ticket, op, 0});
    return ticket;
  }
  const int64_t start = NowNs();
  const dpstore::Ticket ticket = inner_->Submit(std::move(request));
  const int64_t end = NowNs();
  recorder_->counters.submit_ns += end - start;
  recorder_->counters.backend_ns += end - start;
  pending_.push_back({ticket, op, start});
  return ticket;
}

dpstore::StatusOr<dpstore::StorageReply> TimedBackend::Wait(
    dpstore::Ticket ticket) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [ticket](const Pending& p) { return p.ticket == ticket; });
  if (it == pending_.end()) return inner_->Wait(ticket);  // a no-op exchange
  const Pending pending = *it;
  pending_.erase(it);
  if (pending.op == StorageRequest::Op::kUpload) {
    ++recorder_->counters.awaited_uploads;
    ++own_.awaited_uploads;
  }
  if (!recorder_->traced()) return inner_->Wait(ticket);

  const int64_t start = NowNs();
  dpstore::StatusOr<dpstore::StorageReply> reply = inner_->Wait(ticket);
  const int64_t end = NowNs();
  ExchangeCounters& c = recorder_->counters;
  c.backend_ns += end - start;
  c.exchange_ns += end - pending.submit_ns;
  switch (pending.op) {
    case StorageRequest::Op::kDownload:
      c.download_wait_ns += end - start;
      recorder_->AddSpan(Span::kDownload, pending.submit_ns, end);
      break;
    case StorageRequest::Op::kUpload:
      c.upload_wait_ns += end - start;
      recorder_->AddSpan(Span::kUpload, pending.submit_ns, end);
      break;
    case StorageRequest::Op::kDpfEval:
      c.eval_wait_ns += end - start;
      recorder_->AddSpan(Span::kEval, pending.submit_ns, end);
      break;
  }
  return reply;
}

dpstore::BackendFactory TimedFactory(dpstore::BackendFactory inner,
                                     ClientRecorder* recorder,
                                     std::vector<TimedBackend*>* built) {
  return [inner = std::move(inner), recorder, built](uint64_t n,
                                                     size_t block_size) {
    auto backend = std::make_unique<TimedBackend>(
        dpstore::MakeBackend(inner, n, block_size), recorder);
    built->push_back(backend.get());
    return std::unique_ptr<dpstore::StorageBackend>(std::move(backend));
  };
}

}  // namespace perfbench
