#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A deliberate fault the self-test injects inside the benchmark's own code
/// to show that the matching output check can fail.
enum class Fault {
  kNone,
  kAnswer,         ///< flip one byte of one returned block before checking
  kModel,          ///< change one model entry before the read-back
  kDrainCounter,   ///< add one to a server's drained exchange count
  kBottomCounter,  ///< inflate the ⊥ count past its binomial bound
  kShape,          ///< perturb the recorded shape of one operation
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  Fault fault = Fault::kNone;
  /// Where traced runs write their spans and result files.
  std::string out_dir = ".bench_out";
  /// steady_clock nanoseconds at process start (set-up time origin).
  int64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Figures kept in the result file but not in the result line.
  std::vector<Metric> info;
  /// Why `correct` is false (first few failed checks).
  std::vector<std::string> problems;
  /// Operations that ran but are not counted in `attempted` (warm-up,
  /// the engine sample, the read-back after restart).
  uint64_t unmetered_ops = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end: starts its servers, builds the clients,
/// warms up, measures for `seconds`, checks every answer, stops and reaps
/// every server. Infrastructure failures (a server that will not start, a
/// client that cannot be built) come back as `problems` with correct=false
/// and attempted=0.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
