#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

// Server processes the benchmark starts, watches and stops itself, plus the
// per-run directory that holds their sockets and data directories.
//
// Hygiene: every child is started with PR_SET_PDEATHSIG so it dies with the
// load generator even if that is SIGKILLed; the pids of live children are
// kept in a fixed table that the fatal-signal path (InstallSignalGuard) can
// read without allocating.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace perfbench {

/// The counters a dpstore_server prints on its drain lines at SIGTERM that
/// the benchmark reads (the durability ones stay 0 for in-memory servers).
struct DrainCounters {
  uint64_t exchanges = 0;
  uint64_t fused_frames = 0;
  uint64_t blocks_moved = 0;
  uint64_t journal_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t group_commit_riders = 0;

  DrainCounters& operator+=(const DrainCounters& o);
};

/// Parses the "drained:" and "durability:" lines out of a server's stdout.
/// InvalidArgument when the drain line is missing or malformed.
dpstore::StatusOr<DrainCounters> ParseDrainLines(const std::string& out);

/// One dpstore_server child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks and execs the server with `args` and waits (up to 20 s) for its
  /// "listening on" line.
  dpstore::Status Start(const std::string& binary,
                        const std::vector<std::string>& args);

  /// SIGTERM, then collects the drain lines and reaps the child (SIGKILL
  /// after 20 s). Returns the parsed drain counters.
  dpstore::StatusOr<DrainCounters> Stop();

  /// SIGKILL and reap; no-op when not running.
  void Kill();

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// User + system CPU seconds consumed so far (from /proc/<pid>/stat).
  double CpuSeconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMib() const;

 private:
  /// Reads stdout lines until one contains `marker` or the deadline passes.
  bool ReadUntil(const char* marker, int timeout_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_;
};

/// CPU seconds this process has used (all threads).
double SelfCpuSeconds();
/// Peak resident set of this process in MiB.
double SelfPeakRssMib();

/// Creates the per-run directory `.bench_run/<pid>` (relative to the
/// working directory, which keeps Unix socket paths short) and arranges for
/// it to be removed on every exit path the guard covers.
std::string MakeRunDir();
/// Removes the run directory (idempotent).
void RemoveRunDir();

/// Starts the signal thread that reaps every child and removes the run
/// directory on SIGINT/SIGTERM/SIGHUP, and installs a SIGABRT/SIGSEGV
/// handler that kills children before the process dies. Must run before
/// any other thread starts.
void InstallSignalGuard();
/// Stops the signal thread and the watchdog (normal exit path).
void ShutdownSignalGuard();

/// Kills every child, removes the run directory and exits with code 3 if the
/// process is still running `seconds` from now.
void StartWatchdog(double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
