// perfbench_loadgen: the dpstore benchmark's load generator. Starts its own
// dpstore_server processes, runs one closed-loop workload against them,
// checks every answer, and prints one JSON result line:
//
//   perfbench_loadgen --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench_loadgen --self-test
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
// writes the spans to .bench_out/. --self-test injects one fault per output
// check and exits 0 only if every check reported it. See perfbench/README.md.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "host.h"
#include "procs.h"
#include "timed_backend.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       perfbench_loadgen --self-test\n"
               "workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void WriteResultFile(const RunConfig& config, const std::string& fingerprint,
                     const RunResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  const std::string path = config.out_dir + "/result-" + config.workload +
                           (config.traced ? "-traced" : "") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string problems = "[";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    problems += (i == 0 ? "\"" : ", \"") + JsonEscape(result.problems[i]) + "\"";
  }
  problems += "]";
  std::string info = "{";
  for (size_t i = 0; i < result.info.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", result.info[i].value);
    info += (i == 0 ? "\"" : ", \"") + result.info[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            result.info[i].unit + "\"}";
  }
  info += "}";
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"seconds\": %g, \"trace\": %d, \"unmetered_ops\": %" PRIu64
               ", \"fingerprint\": %s, \"problems\": %s, \"info\": %s, "
               "\"result\": %s}\n",
               config.workload.c_str(), config.seed, config.seconds,
               config.traced ? 1 : 0, result.unmetered_ops,
               fingerprint.c_str(), problems.c_str(), info.c_str(),
               ResultJson(result).c_str());
  std::fclose(f);
}

// Runs each workload once with each fault its checks must catch, plus one
// clean run; every faulted run must come back incorrect.
int SelfTest(int64_t start_ns) {
  struct Case {
    const char* workload;
    Fault fault;
    const char* what;
  };
  const Case cases[] = {
      {"dpir_public_read", Fault::kNone, "clean run"},
      {"dpir_public_read", Fault::kAnswer, "corrupted answer"},
      {"dpir_public_read", Fault::kDrainCounter, "corrupted drain counter"},
      {"dpir_public_read", Fault::kBottomCounter, "corrupted bottom counter"},
      {"dpir_public_read", Fault::kShape, "corrupted op shape"},
      {"kvs_durable_cluster", Fault::kNone, "clean run"},
      {"kvs_durable_cluster", Fault::kModel, "corrupted model entry"},
      {"kvs_durable_cluster", Fault::kDrainCounter, "corrupted drain counter"},
      {"dpf_pir_n20", Fault::kNone, "clean run"},
      {"dpf_pir_n20", Fault::kAnswer, "corrupted answer"},
  };
  int bad = 0;
  for (const Case& c : cases) {
    RunConfig config;
    config.workload = c.workload;
    config.seed = 7;
    config.seconds = 1;
    config.fault = c.fault;
    config.process_start_ns = start_ns;
    const RunResult result = RunWorkload(config);
    const bool want_correct = c.fault == Fault::kNone;
    const bool pass = result.correct == want_correct && result.failed == 0 &&
                      result.attempted > 0;
    if (!pass) ++bad;
    std::printf("self-test %-20s %-24s -> correct=%s: %s\n", c.workload,
                c.what, result.correct ? "true" : "false",
                pass ? "ok" : "UNEXPECTED");
    for (const std::string& p : result.problems) {
      std::printf("    %s\n", p.c_str());
    }
    std::fflush(stdout);
  }
  std::printf("self-test: %s\n", bad == 0 ? "every check fired" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t start_ns = NowNs();
  RunConfig config;
  config.process_start_ns = start_ns;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.traced = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!self_test && (!known || config.seconds <= 0 || config.seconds > 120)) {
    return Usage();
  }

  InstallSignalGuard();
  StartWatchdog(self_test ? 900 : 175);
  if (self_test) {
    const int rc = SelfTest(start_ns);
    ShutdownSignalGuard();
    return rc;
  }
  const RunResult result = RunWorkload(config);
  const std::string fingerprint = HostFingerprintJson();
  WriteResultFile(config, fingerprint, result);
  ShutdownSignalGuard();
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: the run did not reach its timed phase\n");
    return 1;
  }
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}
