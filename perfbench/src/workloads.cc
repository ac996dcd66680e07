#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "analysis/driver.h"
#include "core/dp_kvs.h"
#include "core/scheme_registry.h"
#include "crypto/dpf.h"
#include "layers.h"
#include "procs.h"
#include "storage/block.h"
#include "storage/socket_backend.h"
#include "timed_backend.h"
#include "util/random.h"

#ifndef PERFBENCH_SERVER_BIN
#error "PERFBENCH_SERVER_BIN must name the dpstore_server binary"
#endif

namespace perfbench {
namespace {

using dpstore::Block;
using dpstore::BlockId;
using dpstore::Rng;
using dpstore::SchemeConfig;
using dpstore::SchemeRegistry;
using dpstore::Status;
using dpstore::StatusOr;

constexpr size_t kBlockSize = 64;
constexpr uint8_t kDbDepth = 20;
constexpr uint64_t kDbBlocks = uint64_t{1} << kDbDepth;
constexpr double kAlpha = 0.1;
/// Spans kept per client in a traced run; beyond it spans are counted as
/// dropped (bounds memory on the fastest workload).
constexpr size_t kSpanBudget = size_t{1} << 21;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Collects failed output checks from every client thread.
class Checker {
 public:
  void Fail(std::string what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (problems_.size() < 8) problems_.push_back(std::move(what));
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::vector<std::string> problems() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = problems_;
    if (count_ > problems_.size()) {
      out.push_back("... " + std::to_string(count_ - problems_.size()) +
                    " more failed checks");
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  std::vector<std::string> problems_;
};

/// One closed-loop client: its recorder, the backends its scheme built, its
/// seeded operation stream and what it measured.
struct Client {
  Client(uint32_t id, bool traced, uint64_t seed)
      : recorder(id, traced, kSpanBudget), rng(seed) {}

  ClientRecorder recorder;
  std::vector<TimedBackend*> backends;
  Rng rng;
  std::vector<float> latency_us;  ///< timed operations only
  std::vector<float> end_s;       ///< their completion, s into the phase
  uint64_t ops = 0;               ///< timed operations completed
  uint64_t failed = 0;            ///< timed operations that failed
  uint64_t unmetered = 0;
  uint64_t writes = 0;  ///< successful writes, every phase
  uint64_t next_op_id = 0;
  std::map<uint8_t, OpShape> shapes;  ///< first shape seen per op label
};

using Clients = std::vector<std::unique_ptr<Client>>;

/// Compares the shape of the operation that just ended with the first one
/// of its kind this client saw.
void CheckShape(Client& client, uint8_t label, bool corrupt,
                Checker& checker) {
  if (corrupt) client.recorder.CorruptShape();
  const OpShape shape = client.recorder.shape();
  auto [it, inserted] = client.shapes.emplace(label, shape);
  if (!inserted && !(it->second == shape)) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "shape of op kind %u changed: %u downloads/%u blocks, %u "
                  "uploads/%u blocks, %u evals vs %u/%u, %u/%u, %u first",
                  label, shape.downloads, shape.blocks_down, shape.uploads,
                  shape.blocks_up, shape.evals, it->second.downloads,
                  it->second.blocks_down, it->second.uploads,
                  it->second.blocks_up, it->second.evals);
    checker.Fail(buf);
  }
}

/// Every client must have seen the same shape per op kind.
void CheckShapesAgree(const Clients& clients, Checker& checker) {
  for (size_t c = 1; c < clients.size(); ++c) {
    for (const auto& [label, shape] : clients[c]->shapes) {
      auto it = clients[0]->shapes.find(label);
      if (it != clients[0]->shapes.end() && !(it->second == shape)) {
        checker.Fail("clients disagree on the shape of op kind " +
                     std::to_string(label));
      }
    }
  }
}

struct Phase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// `op(client, index)` runs one operation and its checks; false means the
/// operation itself failed. Warm-up runs `warmup_ops` per client, then
/// `at_start` runs on this thread with every client parked, then each client
/// loops until the deadline, issuing its next operation only after the
/// previous one returned.
Phase RunClosedLoop(Clients& clients, uint64_t warmup_ops,
                    double warmup_seconds, double seconds,
                    const std::function<bool(Client&, size_t)>& op,
                    const std::function<void()>& at_start, Checker& checker) {
  std::latch ready(static_cast<std::ptrdiff_t>(clients.size()));
  std::latch go(1);
  std::atomic<int64_t> deadline{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[c];
      const int64_t warm_end =
          NowNs() + static_cast<int64_t>(warmup_seconds * 1e9);
      for (uint64_t w = 0; w < warmup_ops || NowNs() < warm_end; ++w) {
        ++client.unmetered;
        if (!op(client, c)) checker.Fail("warm-up operation failed");
      }
      ready.count_down();
      go.wait();
      const int64_t end = deadline.load();
      const int64_t start = end - static_cast<int64_t>(seconds * 1e9);
      client.latency_us.reserve(1 << 18);
      client.end_s.reserve(1 << 18);
      while (NowNs() < end) {
        const int64_t t0 = NowNs();
        const bool ok = op(client, c);
        const int64_t t1 = NowNs();
        client.latency_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
        client.end_s.push_back(static_cast<float>(t1 - start) / 1e9f);
        ++client.ops;
        if (!ok) ++client.failed;
      }
    });
  }
  ready.wait();
  at_start();
  Phase phase;
  phase.start_ns = NowNs();
  deadline.store(phase.start_ns + static_cast<int64_t>(seconds * 1e9));
  go.count_down();
  for (std::thread& t : threads) t.join();
  phase.end_ns = NowNs();
  return phase;
}

/// Runs `ops` extra unmetered operations on one client.
void RunUnmetered(Client& client, size_t c, uint64_t ops,
                  const std::function<bool(Client&, size_t)>& op,
                  Checker& checker) {
  for (uint64_t i = 0; i < ops; ++i) {
    ++client.unmetered;
    if (!op(client, c)) checker.Fail("unmetered operation failed");
  }
}

double Quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// The dpstore_server processes of one run, restartable on the same
/// arguments (same sockets, same data directories).
class ServerSet {
 public:
  void Add(std::vector<std::string> args) {
    args_.push_back(std::move(args));
    procs_.push_back(std::make_unique<ServerProcess>());
    peak_mib_.push_back(0.0);
  }
  Status StartAll() {
    for (size_t i = 0; i < procs_.size(); ++i) {
      DPSTORE_RETURN_IF_ERROR(procs_[i]->Start(PERFBENCH_SERVER_BIN, args_[i]));
    }
    return dpstore::OkStatus();
  }
  /// Stops every server; the drain counters come back in Add order.
  StatusOr<std::vector<DrainCounters>> StopAll() {
    std::vector<DrainCounters> drains;
    Status first = dpstore::OkStatus();
    for (size_t i = 0; i < procs_.size(); ++i) {
      peak_mib_[i] = std::max(peak_mib_[i], procs_[i]->PeakRssMib());
      StatusOr<DrainCounters> drain = procs_[i]->Stop();
      if (!drain.ok()) {
        if (first.ok()) first = drain.status();
        continue;
      }
      drains.push_back(*drain);
    }
    if (!first.ok()) return first;
    return drains;
  }
  double CpuSeconds() const {
    double sum = 0;
    for (const auto& p : procs_) sum += p->CpuSeconds();
    return sum;
  }
  /// Sum over server slots of the highest VmHWM any of its processes had.
  double PeakRssMib() const {
    double sum = 0;
    for (double v : peak_mib_) sum += v;
    return sum;
  }
  size_t size() const { return procs_.size(); }

 private:
  std::vector<std::vector<std::string>> args_;
  std::vector<std::unique_ptr<ServerProcess>> procs_;
  std::vector<double> peak_mib_;
};

/// What each server should have counted, derived from client-side exchange
/// counts and the deployment's routing rule.
struct Predicted {
  uint64_t exchanges = 0;
  uint64_t blocks = 0;
};

/// Checks the drain counters of one server generation against the
/// prediction, server by server.
void CheckDrains(const std::string& what, std::vector<DrainCounters> drains,
                 const std::vector<Predicted>& predicted, bool corrupt,
                 Checker& checker) {
  if (corrupt && !drains.empty()) ++drains[0].exchanges;
  for (size_t i = 0; i < drains.size() && i < predicted.size(); ++i) {
    if (drains[i].exchanges != predicted[i].exchanges ||
        drains[i].blocks_moved != predicted[i].blocks) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s: server %zu drained %" PRIu64 " exchanges/%" PRIu64
                    " blocks, clients predict %" PRIu64 "/%" PRIu64,
                    what.c_str(), i, drains[i].exchanges,
                    drains[i].blocks_moved, predicted[i].exchanges,
                    predicted[i].blocks);
      checker.Fail(buf);
    }
  }
}

/// Per-server prediction where each TimedBackend talks to exactly one
/// server: every exchange it sent, every block it named, one block per eval.
std::vector<Predicted> PredictDirect(
    const std::vector<ExchangeCounters>& per_server) {
  std::vector<Predicted> out;
  for (const ExchangeCounters& c : per_server) {
    out.push_back({c.downloads + c.uploads + c.evals,
                   c.blocks_down + c.blocks_up + c.evals});
  }
  return out;
}

/// Client-side counts grouped by server: backend k of every client talks to
/// server k % servers.
std::vector<ExchangeCounters> OwnPerServer(const Clients& clients,
                                           size_t servers) {
  std::vector<ExchangeCounters> out(servers);
  for (const auto& client : clients) {
    for (size_t k = 0; k < client->backends.size(); ++k) {
      out[k % servers] += client->backends[k]->own();
    }
  }
  return out;
}

DrainCounters Sum(const std::vector<DrainCounters>& drains) {
  DrainCounters sum;
  for (const DrainCounters& d : drains) sum += d;
  return sum;
}

ExchangeCounters Sum(const std::vector<ExchangeCounters>& counters) {
  ExchangeCounters sum;
  for (const ExchangeCounters& c : counters) sum += c;
  return sum;
}

uint64_t Exchanges(const ExchangeCounters& c) {
  return c.downloads + c.uploads + c.evals;
}

/// State shared by the three workloads' metric assembly.
struct Measured {
  Phase phase;
  std::vector<ExchangeCounters> counters_at_start;  ///< per client
  std::vector<ExchangeCounters> counters_at_end;
  std::vector<dpstore::TransportStats> transport_at_start;
  std::vector<dpstore::TransportStats> transport_at_end;
  double server_cpu_at_start = 0;
  double server_cpu_at_end = 0;
  double self_cpu_at_start = 0;
  double self_cpu_at_end = 0;
  std::vector<uint64_t> writes_at_start;
  std::vector<uint64_t> writes_at_end;
  /// Client-side exchange counts per backend group at the phase edges.
  std::vector<ExchangeCounters> own_at_start;
  std::vector<ExchangeCounters> own_at_end;
};

void Add(RunResult& result, const std::string& name, double value,
         const std::string& unit) {
  result.metrics.push_back({name, value, unit});
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Layer numbers a workload fills in beyond the shared ones; zero where a
/// layer is not on the workload's path.
struct LayerExtras {
  double bottom_share = 0;
  double engine_us_per_exchange = 0;
  double cluster_exchange_fanout = 0;
  double cluster_block_fanout = 0;
  double server_exchanges_timed = 0;
  double server_blocks_timed = 0;
  double fused_frame_share = 0;
  double fsyncs = 0;
  double riders = 0;
  double journal_bytes = 0;
  double user_bytes = 0;
  double dpf_eval_full_ms = 0;
  double dpf_gen_us = 0;
  double dpf_key_bytes = 0;
  double cipher_mib_s = 0;
  double scan_gib_s = 0;
};

/// Server-side layer numbers: `drained` sums every generation of each
/// server; the predictions cover the servers' whole life (`total`) and the
/// timed phase's edges, so work outside the timed phase can be taken out.
void FillServerExtras(const std::vector<DrainCounters>& drained,
                      const std::vector<Predicted>& total,
                      const std::vector<Predicted>& at_start,
                      const std::vector<Predicted>& at_end,
                      uint64_t client_exchanges, uint64_t client_blocks,
                      LayerExtras& x) {
  const DrainCounters sum = Sum(drained);
  double outside_ex = 0;
  double outside_blocks = 0;
  for (size_t i = 0; i < total.size(); ++i) {
    outside_ex += static_cast<double>(total[i].exchanges) -
                  static_cast<double>(at_end[i].exchanges - at_start[i].exchanges);
    outside_blocks += static_cast<double>(total[i].blocks) -
                      static_cast<double>(at_end[i].blocks - at_start[i].blocks);
  }
  x.server_exchanges_timed = static_cast<double>(sum.exchanges) - outside_ex;
  x.server_blocks_timed = static_cast<double>(sum.blocks_moved) - outside_blocks;
  x.cluster_exchange_fanout = Ratio(static_cast<double>(sum.exchanges),
                                    static_cast<double>(client_exchanges));
  x.cluster_block_fanout = Ratio(static_cast<double>(sum.blocks_moved),
                                 static_cast<double>(client_blocks));
  x.fused_frame_share = Ratio(static_cast<double>(sum.fused_frames),
                              static_cast<double>(sum.exchanges));
}

void AddMetrics(const RunConfig& config, const Clients& clients,
                const Measured& m, double peak_rss_mib,
                const LayerExtras& x, RunResult& result) {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<float> latencies;
  ExchangeCounters timed;
  double op_us = 0;
  dpstore::TransportStats transport;
  for (size_t c = 0; c < clients.size(); ++c) {
    const Client& client = *clients[c];
    ops += client.ops;
    failed += client.failed;
    latencies.insert(latencies.end(), client.latency_us.begin(),
                     client.latency_us.end());
    for (float us : client.latency_us) op_us += us;
    timed += m.counters_at_end[c] - m.counters_at_start[c];
    transport += m.transport_at_end[c] - m.transport_at_start[c];
  }
  result.attempted = ops;
  result.failed = failed;
  const double secs = m.phase.seconds();
  const double ops_d = static_cast<double>(ops);
  const double ops_per_s = ops_d / secs;
  if (!config.traced) {
    Add(result, "ops_per_s", ops_per_s, "ops/s");
    Add(result, "p50_ms", Quantile(latencies, 0.5) / 1e3, "ms");
    Add(result, "bytes_per_op",
        Ratio(static_cast<double>(transport.bytes_moved + transport.aux_bytes),
              ops_d),
        "B");
    Add(result, "setup_s",
        static_cast<double>(m.phase.start_ns - config.process_start_ns) / 1e9,
        "s");
    Add(result, "peak_rss_mib", peak_rss_mib + SelfPeakRssMib(), "MiB");
    // Tail latency does not repeat within a tenth from run to run on a
    // shared host, so it is kept in the result file only.
    result.info.push_back({"p90_ms", Quantile(latencies, 0.9) / 1e3, "ms"});
    result.info.push_back({"p99_ms", Quantile(latencies, 0.99) / 1e3, "ms"});
    return;
  }
  const double exchanges = static_cast<double>(Exchanges(timed));
  Add(result, "traced.ops_per_s", ops_per_s, "ops/s");
  Add(result, "client.self_us_per_op",
      Ratio(op_us - static_cast<double>(timed.backend_ns) / 1e3, ops_d), "us");
  Add(result, "client.exchanges_per_op", Ratio(exchanges, ops_d), "count");
  Add(result, "client.awaited_uploads_per_op",
      Ratio(static_cast<double>(timed.awaited_uploads), ops_d), "count");
  Add(result, "client.bottom_share", x.bottom_share, "share");
  Add(result, "transport.submit_us",
      Ratio(static_cast<double>(timed.submit_ns) / 1e3, exchanges), "us");
  Add(result, "transport.exchange_us",
      Ratio(static_cast<double>(timed.exchange_ns) / 1e3, exchanges), "us");
  // The Wait split is given as shares of operation time, so that a workload
  // without one exchange kind reads a true 0 rather than a time.
  const double op_ns = op_us * 1e3;
  Add(result, "transport.download_wait_share",
      Ratio(static_cast<double>(timed.download_wait_ns), op_ns), "share");
  Add(result, "transport.upload_wait_share",
      Ratio(static_cast<double>(timed.upload_wait_ns), op_ns), "share");
  Add(result, "transport.eval_wait_share",
      Ratio(static_cast<double>(timed.eval_wait_ns), op_ns), "share");
  Add(result, "cluster.server_exchanges_per_exchange",
      x.cluster_exchange_fanout, "count");
  Add(result, "cluster.server_blocks_per_block", x.cluster_block_fanout,
      "count");
  Add(result, "server.exchanges_per_s", x.server_exchanges_timed / secs,
      "1/s");
  Add(result, "server.fused_frame_share", x.fused_frame_share, "share");
  Add(result, "server.busy_cores",
      (m.server_cpu_at_end - m.server_cpu_at_start) / secs, "cores");
  Add(result, "engine.blocks_moved_per_op",
      Ratio(x.server_blocks_timed, ops_d), "count");
  Add(result, "engine.execute_us_per_exchange", x.engine_us_per_exchange,
      "us");
  Add(result, "persist.fsyncs_per_op", Ratio(x.fsyncs, ops_d), "count");
  Add(result, "persist.group_commit_rider_share",
      Ratio(x.riders, x.riders + x.fsyncs), "share");
  Add(result, "persist.journal_bytes_per_user_byte",
      Ratio(x.journal_bytes, x.user_bytes), "ratio");
  Add(result, "crypto.dpf_eval_full_ms", x.dpf_eval_full_ms, "ms");
  Add(result, "crypto.dpf_gen_us", x.dpf_gen_us, "us");
  Add(result, "crypto.dpf_key_bytes", x.dpf_key_bytes, "B");
  Add(result, "crypto.cipher_mib_s", x.cipher_mib_s, "MiB/s");
  Add(result, "kernels.select_xor_scan_gib_s", x.scan_gib_s, "GiB/s");
  Add(result, "loadgen.busy_cores",
      (m.self_cpu_at_end - m.self_cpu_at_start) / secs, "cores");
}

/// Standalone crypto and kernel timings at a workload's geometry: an arena
/// of `n` blocks of `block_size` bytes, client payloads of `plaintext_size`.
void MeasureStandalone(uint64_t n, size_t block_size, size_t plaintext_size,
                       LayerExtras& x) {
  uint8_t depth = 1;
  while (depth < 63 && (uint64_t{1} << depth) < n) ++depth;
  x.dpf_eval_full_ms = DpfEvalFullMs(depth, 3);
  x.dpf_gen_us = DpfGenUs(depth, 200);
  x.dpf_key_bytes = static_cast<double>(dpstore::crypto::DpfKeyBytes(depth));
  x.cipher_mib_s = CipherMibPerS(plaintext_size);
  x.scan_gib_s = SelectXorScanGibPerS(n, block_size, 5);
}

/// Writes every recorded span as CSV (times in us from the timed phase's
/// start; warm-up spans are negative).
void WriteSpans(const RunConfig& config, const Clients& clients,
                const Phase& phase, const std::vector<const char*>& labels) {
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  const std::string path =
      config.out_dir + "/trace-" + config.workload + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  static const char* kKinds[] = {"op", "download", "upload", "dpf_eval"};
  std::fprintf(f, "client,span,op_label,op_id,start_us,end_us\n");
  uint64_t dropped = 0;
  for (const auto& client : clients) {
    dropped += client->recorder.dropped_spans();
    for (const Span& s : client->recorder.spans()) {
      std::fprintf(f, "%u,%s,%s,%" PRIu64 ",%.3f,%.3f\n", s.client,
                   kKinds[s.kind],
                   s.kind == Span::kOp && s.label < labels.size()
                       ? labels[s.label]
                       : "",
                   s.op_id,
                   static_cast<double>(s.start_ns - phase.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - phase.start_ns) / 1e3);
    }
  }
  if (dropped > 0) std::fprintf(f, "# dropped spans: %" PRIu64 "\n", dropped);
  std::fclose(f);
}

void TakeStart(const Clients& clients, const ServerSet& servers,
               size_t backend_groups,
               const std::function<dpstore::TransportStats(size_t)>& totals,
               Measured& m) {
  m.own_at_start = OwnPerServer(clients, backend_groups);
  m.counters_at_start.clear();
  m.writes_at_start.clear();
  for (const auto& client : clients) {
    m.counters_at_start.push_back(client->recorder.counters);
    m.writes_at_start.push_back(client->writes);
  }
  m.transport_at_start.clear();
  for (size_t c = 0; c < clients.size(); ++c) {
    m.transport_at_start.push_back(totals(c));
  }
  m.server_cpu_at_start = servers.CpuSeconds();
  m.self_cpu_at_start = SelfCpuSeconds();
}

void TakeEnd(const Clients& clients, const ServerSet& servers,
             size_t backend_groups,
             const std::function<dpstore::TransportStats(size_t)>& totals,
             Measured& m) {
  m.own_at_end = OwnPerServer(clients, backend_groups);
  m.counters_at_end.clear();
  m.writes_at_end.clear();
  for (const auto& client : clients) {
    m.counters_at_end.push_back(client->recorder.counters);
    m.writes_at_end.push_back(client->writes);
  }
  m.server_cpu_at_end = servers.CpuSeconds();
  m.self_cpu_at_end = SelfCpuSeconds();
  m.transport_at_end.clear();
  for (size_t c = 0; c < clients.size(); ++c) {
    m.transport_at_end.push_back(totals(c));
  }
}

/// Re-runs `ops` unmetered operations on client 0 with full transcripts,
/// then replays their exchanges in process against the memory backend: the
/// engine's own cost per exchange, without wire or scheduling.
double SampleEngine(Client& client, uint64_t ops,
                    const std::function<bool(Client&, size_t)>& op,
                    Checker& checker) {
  TimedBackend* backend = client.backends[0];
  backend->SetTranscriptCountingOnly(false);
  backend->ResetTranscript();
  RunUnmetered(client, 0, ops, op, checker);
  std::vector<dpstore::StorageRequest> plan = dpstore::ExchangePlanFromTranscript(
      backend->transcript(), backend->block_size());
  backend->ResetTranscript();
  backend->SetTranscriptCountingOnly(true);
  StatusOr<double> us = EngineExecuteUsPerExchange(
      backend->n(), backend->block_size(), std::move(plan));
  if (!us.ok()) {
    checker.Fail("engine replay: " + us.status().ToString());
    return 0.0;
  }
  return *us;
}

// --- dpir_public_read --------------------------------------------------------

void RunDpirPublicRead(const RunConfig& config, const std::string& run_dir,
                       Checker& checker, RunResult& result) {
  constexpr size_t kClients = 4;
  constexpr uint64_t kWarmupOps = 200;
  constexpr double kWarmupSeconds = 2.0;
  constexpr uint64_t kEngineSampleOps = 2000;
  const std::string sock = run_dir + "/dpir.sock";
  ServerSet servers;
  servers.Add({"--unix", sock, "--threads", "4"});
  if (Status st = servers.StartAll(); !st.ok()) {
    checker.Fail("server start: " + st.ToString());
    return;
  }
  Clients clients;
  std::vector<std::unique_ptr<dpstore::RamScheme>> schemes;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(static_cast<uint32_t>(c),
                                               config.traced,
                                               Mix(config.seed, c)));
    SchemeConfig socket;
    socket.backend = "socket";
    socket.socket_path = sock;
    socket.socket_namespace_base = 1;  // every client attaches to one arena
    socket.counting_only_transcript = true;
    StatusOr<dpstore::BackendFactory> factory =
        dpstore::BackendFactoryFor(socket);
    if (!factory.ok()) {
      checker.Fail("backend: " + factory.status().ToString());
      return;
    }
    SchemeConfig scheme;
    scheme.n = kDbBlocks;
    scheme.value_size = kBlockSize;
    scheme.seed = Mix(config.seed, 100 + c);
    scheme.alpha = kAlpha;
    scheme.backend_factory = TimedFactory(*factory, &clients[c]->recorder,
                                          &clients[c]->backends);
    // Building a client uploads the public database again (the registry
    // seeds every scheme it builds), so set-up grows with the client count.
    const int64_t build_start = NowNs();
    StatusOr<std::unique_ptr<dpstore::RamScheme>> made =
        SchemeRegistry::Instance().MakeRam("dp_ir", scheme);
    if (!made.ok()) {
      checker.Fail("dp_ir client: " + made.status().ToString());
      return;
    }
    std::fprintf(stderr, "perfbench: dp_ir client %zu built in %.3f s\n", c,
                 static_cast<double>(NowNs() - build_start) / 1e9);
    schemes.push_back(std::move(*made));
  }

  std::atomic<uint64_t> answers{0};
  std::atomic<uint64_t> bottoms{0};
  std::atomic<bool> corrupt_answer{config.fault == Fault::kAnswer};
  auto op = [&](Client& client, size_t c) -> bool {
    const BlockId id = client.rng.Uniform(kDbBlocks);
    const uint64_t op_id = client.next_op_id++;
    client.recorder.BeginOp(op_id);
    StatusOr<std::optional<Block>> read = schemes[c]->QueryRead(id);
    client.recorder.EndOp(0);
    if (!read.ok()) return false;
    CheckShape(client, 0, config.fault == Fault::kShape && c == 0 && op_id == 10,
               checker);
    answers.fetch_add(1, std::memory_order_relaxed);
    if (!read->has_value()) {
      bottoms.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    Block& block = **read;
    if (c == 0 && corrupt_answer.load(std::memory_order_relaxed) &&
        corrupt_answer.exchange(false)) {
      block[0] ^= 1;
    }
    if (!dpstore::IsMarkerBlock(block, id)) {
      checker.Fail("dp_ir read of block " + std::to_string(id) +
                   " is not MarkerBlock(id)");
    }
    return true;
  };
  auto totals = [&](size_t c) { return schemes[c]->TransportTotals(); };
  Measured m;
  m.phase = RunClosedLoop(
      clients, kWarmupOps, kWarmupSeconds, config.seconds, op,
      [&] { TakeStart(clients, servers, 1, totals, m); }, checker);
  TakeEnd(clients, servers, 1, totals, m);

  LayerExtras x;
  if (config.traced) {
    x.engine_us_per_exchange =
        SampleEngine(*clients[0], kEngineSampleOps, op, checker);
  }

  // The ⊥ branch fires with probability alpha, independently per query.
  uint64_t n = answers.load();
  uint64_t b = bottoms.load();
  if (config.fault == Fault::kBottomCounter) b += n / 2;
  const double mean = kAlpha * static_cast<double>(n);
  const double sd = std::sqrt(static_cast<double>(n) * kAlpha * (1 - kAlpha));
  if (std::fabs(static_cast<double>(b) - mean) > 5 * sd + 1) {
    checker.Fail("⊥ answers " + std::to_string(b) + " of " +
                 std::to_string(n) + " lie outside 5 sd of alpha*n");
  }
  x.bottom_share = Ratio(static_cast<double>(b), static_cast<double>(n));
  CheckShapesAgree(clients, checker);

  StatusOr<std::vector<DrainCounters>> drains = servers.StopAll();
  if (!drains.ok()) {
    checker.Fail("server stop: " + drains.status().ToString());
    return;
  }
  const std::vector<Predicted> predicted =
      PredictDirect(OwnPerServer(clients, 1));
  CheckDrains("dpir", *drains, predicted,
              config.fault == Fault::kDrainCounter, checker);
  const ExchangeCounters life = Sum(OwnPerServer(clients, 1));
  FillServerExtras(*drains, predicted, PredictDirect(m.own_at_start),
                   PredictDirect(m.own_at_end), Exchanges(life),
                   life.blocks_down + life.blocks_up + life.evals, x);
  if (config.traced) MeasureStandalone(kDbBlocks, kBlockSize, kBlockSize, x);
  for (const auto& client : clients) result.unmetered_ops += client->unmetered;
  AddMetrics(config, clients, m, servers.PeakRssMib(), x, result);
  if (config.traced) WriteSpans(config, clients, m.phase, {"read"});
}

// --- kvs_durable_cluster -----------------------------------------------------

/// The value a client writes for `key` at `version` (version 0 is the
/// bulk-loaded value): the benchmark's model needs only the version.
dpstore::KvsScheme::Value ValueOf(uint64_t seed, size_t client, uint64_t key,
                                  uint32_t version) {
  Rng rng(Mix(Mix(seed, key), (uint64_t{version} << 8) | client));
  dpstore::KvsScheme::Value value(kBlockSize);
  for (size_t i = 0; i < value.size(); i += 8) {
    const uint64_t word = rng.NextUint64();
    std::memcpy(value.data() + i, &word, std::min<size_t>(8, value.size() - i));
  }
  return value;
}

/// The cluster's routing rule with one range: the primary (server 0)
/// serves every download and receives every upload; the mirror (server 1)
/// receives every upload.
std::vector<Predicted> PredictMirrored(const ExchangeCounters& c) {
  return {{c.downloads + c.uploads, c.blocks_down + c.blocks_up},
          {c.uploads, c.blocks_up}};
}

void RunKvsDurableCluster(const RunConfig& config, const std::string& run_dir,
                          Checker& checker, RunResult& result) {
  constexpr size_t kClients = 2;
  constexpr uint64_t kKeys = uint64_t{1} << 14;
  constexpr double kZipf = 0.99;
  constexpr uint64_t kWarmupOps = 100;
  constexpr double kWarmupSeconds = 1.0;
  constexpr uint64_t kEngineSampleOps = 200;
  constexpr uint8_t kGet = 0;
  constexpr uint8_t kPut = 1;
  const std::string sock_a = run_dir + "/kvs-a.sock";
  const std::string sock_b = run_dir + "/kvs-b.sock";
  const std::string data_a = run_dir + "/kvs-a";
  const std::string data_b = run_dir + "/kvs-b";
  std::filesystem::create_directories(data_a);
  std::filesystem::create_directories(data_b);
  ServerSet servers;
  servers.Add({"--unix", sock_a, "--data-dir", data_a, "--threads", "4"});
  servers.Add({"--unix", sock_b, "--data-dir", data_b, "--threads", "4"});
  if (Status st = servers.StartAll(); !st.ok()) {
    checker.Fail("server start: " + st.ToString());
    return;
  }
  const std::string cluster = "slots 1\nnode a unix:" + sock_a +
                              "\nnode b unix:" + sock_b +
                              "\nrange 0 1 a b\n";

  Clients clients;
  std::vector<std::unique_ptr<dpstore::DpKvs>> stores;
  std::vector<std::vector<uint64_t>> keys(kClients);
  std::vector<std::vector<uint32_t>> versions(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(static_cast<uint32_t>(c),
                                               config.traced,
                                               Mix(config.seed, c)));
    SchemeConfig transport;
    transport.backend = "cluster";
    transport.cluster_config = cluster;
    // Durable servers persist shared namespaces only; each client owns a
    // window of them.
    transport.socket_namespace_base = 1000 * (c + 1);
    // The read-back reconnects to restarted servers.
    transport.socket_reconnect_max = 64;
    transport.counting_only_transcript = true;
    transport.seed = Mix(config.seed, 200 + c);
    StatusOr<dpstore::BackendFactory> factory =
        dpstore::BackendFactoryFor(transport);
    if (!factory.ok()) {
      checker.Fail("backend: " + factory.status().ToString());
      return;
    }
    dpstore::DpKvsOptions options;
    options.capacity = kKeys;
    options.value_size = kBlockSize;
    options.seed = Mix(config.seed, 300 + c);
    options.backend_factory = TimedFactory(*factory, &clients[c]->recorder,
                                           &clients[c]->backends);
    stores.push_back(std::make_unique<dpstore::DpKvs>(options));
    std::vector<std::pair<uint64_t, dpstore::KvsScheme::Value>> items;
    for (uint64_t i = 0; i < kKeys; ++i) {
      keys[c].push_back(Mix(Mix(config.seed, 400 + c), i));
      items.emplace_back(keys[c][i], ValueOf(config.seed, c, keys[c][i], 0));
    }
    versions[c].assign(kKeys, 0);
    if (Status st = stores[c]->BulkLoad(items); !st.ok()) {
      checker.Fail("bulk load: " + st.ToString());
      return;
    }
  }

  const dpstore::ZipfDistribution zipf(kKeys, kZipf);
  auto op = [&](Client& client, size_t c) -> bool {
    const uint64_t i = zipf.Sample(&client.rng);
    const bool get = client.rng.Bernoulli(0.5);
    const uint64_t key = keys[c][i];
    client.recorder.BeginOp(client.next_op_id++);
    if (get) {
      StatusOr<std::optional<dpstore::KvsScheme::Value>> got = stores[c]->Get(key);
      client.recorder.EndOp(kGet);
      if (!got.ok()) return false;
      CheckShape(client, kGet, false, checker);
      if (!got->has_value() ||
          **got != ValueOf(config.seed, c, key, versions[c][i])) {
        checker.Fail("kvs Get of key rank " + std::to_string(i) +
                     " does not match the model");
      }
      return true;
    }
    const uint32_t version = versions[c][i] + 1;
    Status put = stores[c]->Put(key, ValueOf(config.seed, c, key, version));
    client.recorder.EndOp(kPut);
    if (!put.ok()) return false;
    CheckShape(client, kPut, false, checker);
    versions[c][i] = version;
    ++client.writes;
    return true;
  };

  // Server generations: each stop drains counters that must match the
  // client-side prediction for the exchanges made since the last start.
  ExchangeCounters generation_start;
  int generation = 0;
  std::vector<DrainCounters> drained(servers.size());
  DrainCounters timed_drain;
  auto stop_generation = [&]() -> bool {
    StatusOr<std::vector<DrainCounters>> drains = servers.StopAll();
    if (!drains.ok()) {
      checker.Fail("server stop: " + drains.status().ToString());
      return false;
    }
    ExchangeCounters now;
    for (const auto& client : clients) now += client->recorder.counters;
    CheckDrains("kvs generation " + std::to_string(generation), *drains,
                PredictMirrored(now - generation_start),
                config.fault == Fault::kDrainCounter && generation == 0,
                checker);
    for (size_t i = 0; i < drains->size(); ++i) drained[i] += (*drains)[i];
    generation_start = now;
    ++generation;
    timed_drain = Sum(*drains);
    return true;
  };
  auto totals = [&](size_t c) { return stores[c]->TransportTotals(); };
  Measured m;
  m.phase = RunClosedLoop(
      clients, kWarmupOps, kWarmupSeconds, config.seconds, op,
      [&] {
        // Traced runs restart the servers here, so the drain of the next
        // generation covers exactly the timed phase.
        if (config.traced && stop_generation()) {
          Status st = servers.StartAll();
          if (!st.ok()) checker.Fail("server restart: " + st.ToString());
        }
        TakeStart(clients, servers, 1, totals, m);
      },
      checker);
  TakeEnd(clients, servers, 1, totals, m);

  LayerExtras x;
  if (config.traced) {
    x.engine_us_per_exchange =
        SampleEngine(*clients[0], kEngineSampleOps, op, checker);
  }
  CheckShapesAgree(clients, checker);
  if (!stop_generation()) return;
  const DrainCounters timed = timed_drain;

  // Read-back after a restart on the same data directories, through the
  // same clients: every key written must hold its last written value.
  if (config.fault == Fault::kModel) {
    for (uint32_t& v : versions[0]) {
      if (v > 0) {
        ++v;
        break;
      }
    }
  }
  if (Status st = servers.StartAll(); !st.ok()) {
    checker.Fail("server restart: " + st.ToString());
    return;
  }
  std::vector<std::thread> readers;
  for (size_t c = 0; c < kClients; ++c) {
    readers.emplace_back([&, c] {
      for (uint64_t i = 0; i < kKeys; ++i) {
        if (versions[c][i] == 0) continue;
        ++clients[c]->unmetered;
        clients[c]->recorder.BeginOp(clients[c]->next_op_id++);
        StatusOr<std::optional<dpstore::KvsScheme::Value>> got =
            stores[c]->Get(keys[c][i]);
        clients[c]->recorder.EndOp(kGet);
        if (!got.ok()) {
          checker.Fail("read-back Get failed: " + got.status().ToString());
          continue;
        }
        if (!got->has_value() ||
            **got != ValueOf(config.seed, c, keys[c][i], versions[c][i])) {
          checker.Fail("after restart, key rank " + std::to_string(i) +
                       " of client " + std::to_string(c) +
                       " does not hold its last written value");
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  if (!stop_generation()) return;

  ExchangeCounters life;
  for (const auto& client : clients) life += client->recorder.counters;
  FillServerExtras(drained, PredictMirrored(life),
                   PredictMirrored(Sum(m.own_at_start)),
                   PredictMirrored(Sum(m.own_at_end)), Exchanges(life),
                   life.blocks_down + life.blocks_up, x);
  if (config.traced) {
    uint64_t writes = 0;
    for (size_t c = 0; c < kClients; ++c) {
      writes += m.writes_at_end[c] - m.writes_at_start[c];
    }
    x.fsyncs = static_cast<double>(timed.fsyncs);
    x.riders = static_cast<double>(timed.group_commit_riders);
    x.journal_bytes = static_cast<double>(timed.journal_bytes);
    x.user_bytes = static_cast<double>(writes * kBlockSize);
    MeasureStandalone(stores[0]->server().n(), stores[0]->server().block_size(),
                      stores[0]->codec().node_size(), x);
  }
  for (const auto& client : clients) result.unmetered_ops += client->unmetered;
  AddMetrics(config, clients, m, servers.PeakRssMib(), x, result);
  if (config.traced) WriteSpans(config, clients, m.phase, {"get", "put"});
}

// --- dpf_pir_n20 -------------------------------------------------------------

void RunDpfPir(const RunConfig& config, const std::string& run_dir,
               Checker& checker, RunResult& result) {
  constexpr size_t kClients = 2;
  constexpr uint64_t kWarmupOps = 1;
  constexpr uint64_t kEngineSampleOps = 2;
  constexpr double kWarmupSeconds = 0.0;
  const std::vector<std::string> socks = {run_dir + "/dpf-0.sock",
                                          run_dir + "/dpf-1.sock"};
  ServerSet servers;
  for (const std::string& sock : socks) {
    servers.Add({"--unix", sock, "--threads", "4"});
  }
  if (Status st = servers.StartAll(); !st.ok()) {
    checker.Fail("server start: " + st.ToString());
    return;
  }
  Clients clients;
  std::vector<std::unique_ptr<dpstore::RamScheme>> schemes;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(static_cast<uint32_t>(c),
                                               config.traced,
                                               Mix(config.seed, c)));
    // Replica k of every client lives on server k: the two DPF keys of one
    // query land in different processes. Both clients share each server's
    // one arena.
    auto built = std::make_shared<size_t>(0);
    dpstore::BackendFactory replicas = [socks, built](uint64_t n,
                                                       size_t block_size) {
      dpstore::SocketBackendOptions options;
      options.socket_path = socks[(*built)++ % socks.size()];
      options.namespace_id = 1;
      options.attach_or_create = true;
      auto backend = std::make_unique<dpstore::SocketBackend>(n, block_size,
                                                              options);
      backend->SetTranscriptCountingOnly(true);
      return std::unique_ptr<dpstore::StorageBackend>(std::move(backend));
    };
    SchemeConfig scheme;
    scheme.n = kDbBlocks;
    scheme.value_size = kBlockSize;
    scheme.seed = Mix(config.seed, 100 + c);
    scheme.replicas = 2;
    scheme.backend_factory = TimedFactory(std::move(replicas),
                                          &clients[c]->recorder,
                                          &clients[c]->backends);
    StatusOr<std::unique_ptr<dpstore::RamScheme>> made =
        SchemeRegistry::Instance().MakeRam("dpf_pir", scheme);
    if (!made.ok()) {
      checker.Fail("dpf_pir client: " + made.status().ToString());
      return;
    }
    schemes.push_back(std::move(*made));
  }

  std::atomic<bool> corrupt_answer{config.fault == Fault::kAnswer};
  auto op = [&](Client& client, size_t c) -> bool {
    const BlockId id = client.rng.Uniform(kDbBlocks);
    client.recorder.BeginOp(client.next_op_id++);
    StatusOr<std::optional<Block>> read = schemes[c]->QueryRead(id);
    client.recorder.EndOp(0);
    if (!read.ok()) return false;
    CheckShape(client, 0, false, checker);
    if (!read->has_value()) {
      checker.Fail("dpf_pir returned ⊥ for block " + std::to_string(id));
      return true;
    }
    Block& block = **read;
    if (c == 0 && corrupt_answer.load(std::memory_order_relaxed) &&
        corrupt_answer.exchange(false)) {
      block[0] ^= 1;
    }
    if (!dpstore::IsMarkerBlock(block, id)) {
      checker.Fail("dpf_pir read of block " + std::to_string(id) +
                   " is not MarkerBlock(id)");
    }
    return true;
  };
  auto totals = [&](size_t c) { return schemes[c]->TransportTotals(); };
  Measured m;
  m.phase = RunClosedLoop(
      clients, kWarmupOps, kWarmupSeconds, config.seconds, op,
      [&] { TakeStart(clients, servers, socks.size(), totals, m); }, checker);
  TakeEnd(clients, servers, socks.size(), totals, m);
  CheckShapesAgree(clients, checker);
  LayerExtras x;
  if (config.traced) {
    // Transcripts do not carry DPF keys, so the engine sample replays the
    // keys client 0 submits in a few extra queries.
    std::vector<std::vector<uint8_t>> keys;
    clients[0]->recorder.eval_capture = &keys;
    RunUnmetered(*clients[0], 0, kEngineSampleOps, op, checker);
    clients[0]->recorder.eval_capture = nullptr;
    std::vector<dpstore::StorageRequest> plan;
    for (const std::vector<uint8_t>& key : keys) {
      plan.push_back(dpstore::StorageRequest::DpfEvalOf(key));
    }
    StatusOr<double> us =
        EngineExecuteUsPerExchange(kDbBlocks, kBlockSize, std::move(plan));
    if (!us.ok()) checker.Fail("engine replay: " + us.status().ToString());
    x.engine_us_per_exchange = us.ok() ? *us : 0.0;
  }

  StatusOr<std::vector<DrainCounters>> drains = servers.StopAll();
  if (!drains.ok()) {
    checker.Fail("server stop: " + drains.status().ToString());
    return;
  }
  const std::vector<ExchangeCounters> own = OwnPerServer(clients, socks.size());
  const std::vector<Predicted> predicted = PredictDirect(own);
  CheckDrains("dpf", *drains, predicted, config.fault == Fault::kDrainCounter,
              checker);
  const ExchangeCounters life = Sum(own);
  FillServerExtras(*drains, predicted, PredictDirect(m.own_at_start),
                   PredictDirect(m.own_at_end), Exchanges(life),
                   life.blocks_down + life.blocks_up + life.evals, x);
  if (config.traced) MeasureStandalone(kDbBlocks, kBlockSize, kBlockSize, x);
  for (const auto& client : clients) result.unmetered_ops += client->unmetered;
  AddMetrics(config, clients, m, servers.PeakRssMib(), x, result);
  if (config.traced) WriteSpans(config, clients, m.phase, {"pir"});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "dpir_public_read", "kvs_durable_cluster", "dpf_pir_n20"};
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  Checker checker;
  const std::string run_dir = MakeRunDir();
  if (config.workload == "dpir_public_read") {
    RunDpirPublicRead(config, run_dir, checker, result);
  } else if (config.workload == "kvs_durable_cluster") {
    RunKvsDurableCluster(config, run_dir, checker, result);
  } else if (config.workload == "dpf_pir_n20") {
    RunDpfPir(config, run_dir, checker, result);
  } else {
    checker.Fail("unknown workload " + config.workload);
  }
  RemoveRunDir();
  result.problems = checker.problems();
  result.correct = checker.count() == 0;
  return result;
}

}  // namespace perfbench
