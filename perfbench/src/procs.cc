#include "procs.h"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

using dpstore::Status;
using dpstore::StatusOr;

// Live children, readable from a signal handler (no allocation, no locks).
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void RegisterChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void UnregisterChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

// Async-signal-safe: kill() and waitpid() only.
void KillAllChildren() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
}

std::mutex g_run_dir_mu;
std::string g_run_dir;  // guarded by g_run_dir_mu

std::thread g_signal_thread;
std::atomic<bool> g_guard_shutdown{false};

std::thread g_watchdog;
std::mutex g_watchdog_mu;
std::condition_variable g_watchdog_cv;
bool g_watchdog_stop = false;  // guarded by g_watchdog_mu

sigset_t GuardedSignals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGHUP);
  sigaddset(&set, SIGUSR2);  // wakes the thread on the normal exit path
  return set;
}

void FatalSignalHandler(int sig) {
  KillAllChildren();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

uint64_t FieldAfter(const std::string& text, const char* key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return UINT64_MAX;
  const char* p = text.c_str() + at + std::strlen(key);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 10);
  return end == p ? UINT64_MAX : static_cast<uint64_t>(v);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

DrainCounters& DrainCounters::operator+=(const DrainCounters& o) {
  exchanges += o.exchanges;
  fused_frames += o.fused_frames;
  blocks_moved += o.blocks_moved;
  journal_bytes += o.journal_bytes;
  fsyncs += o.fsyncs;
  group_commit_riders += o.group_commit_riders;
  return *this;
}

StatusOr<DrainCounters> ParseDrainLines(const std::string& out) {
  const size_t drained = out.find("drained:");
  if (drained == std::string::npos) {
    return dpstore::InvalidArgumentError("no drain line in server output");
  }
  const std::string line = out.substr(drained, out.find('\n', drained) - drained);
  DrainCounters c;
  c.exchanges = FieldAfter(line, "exchanges=");
  c.fused_frames = FieldAfter(line, "(fused ");
  c.blocks_moved = FieldAfter(line, "blocks moved=");
  for (uint64_t v : {c.exchanges, c.fused_frames, c.blocks_moved}) {
    if (v == UINT64_MAX) {
      return dpstore::InvalidArgumentError("malformed drain line: " + line);
    }
  }
  const size_t durability = out.find("durability:");
  if (durability != std::string::npos) {
    const std::string d =
        out.substr(durability, out.find('\n', durability) - durability);
    c.journal_bytes = FieldAfter(d, " bytes=");
    c.fsyncs = FieldAfter(d, "fsyncs=");
    c.group_commit_riders = FieldAfter(d, "(riders ");
    for (uint64_t v : {c.journal_bytes, c.fsyncs, c.group_commit_riders}) {
      if (v == UINT64_MAX) {
        return dpstore::InvalidArgumentError("malformed durability line: " +
                                             d);
      }
    }
  }
  return c;
}

ServerProcess::~ServerProcess() { Kill(); }

Status ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args) {
  if (running()) return dpstore::FailedPreconditionError("already running");
  // argv is built before fork: the child of a threaded parent may only make
  // async-signal-safe calls until exec.
  std::vector<std::string> owned;
  owned.push_back(binary);
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : owned) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return dpstore::InternalError(std::string("pipe2: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return dpstore::InternalError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(fds[1], STDOUT_FILENO);
    sigset_t none;
    sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  out_.clear();
  RegisterChild(pid);
  if (!ReadUntil("listening on", 20000)) {
    const std::string seen = out_;
    Kill();
    return dpstore::UnavailableError("server did not come up: " + seen);
  }
  return dpstore::OkStatus();
}

bool ServerProcess::ReadUntil(const char* marker, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  char buf[4096];
  while (marker == nullptr || out_.find(marker) == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return marker == nullptr;  // EOF
    out_.append(buf, static_cast<size_t>(got));
  }
  return true;
}

StatusOr<DrainCounters> ServerProcess::Stop() {
  if (!running()) return dpstore::FailedPreconditionError("not running");
  ::kill(pid_, SIGTERM);
  const bool eof = ReadUntil(nullptr, 20000);
  if (!eof) ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  UnregisterChild(pid_);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (!eof || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return dpstore::InternalError("server did not drain cleanly: " + out_);
  }
  return ParseDrainLines(out_);
}

void ServerProcess::Kill() {
  if (!running()) return;
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  UnregisterChild(pid_);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
}

double ServerProcess::CpuSeconds() const {
  if (!running()) return 0.0;
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMib() const {
  if (!running()) return 0.0;
  const std::string status =
      ReadFile("/proc/" + std::to_string(pid_) + "/status");
  const uint64_t kib = FieldAfter(status, "VmHWM:");
  return kib == UINT64_MAX ? 0.0 : static_cast<double>(kib) / 1024.0;
}

double SelfCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double SelfPeakRssMib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string MakeRunDir() {
  std::lock_guard<std::mutex> lock(g_run_dir_mu);
  g_run_dir = ".bench_run/" + std::to_string(::getpid());
  std::filesystem::remove_all(g_run_dir);
  std::filesystem::create_directories(g_run_dir);
  return g_run_dir;
}

void RemoveRunDir() {
  std::lock_guard<std::mutex> lock(g_run_dir_mu);
  if (g_run_dir.empty()) return;
  std::error_code ignored;
  std::filesystem::remove_all(g_run_dir, ignored);
  // Drop the parent too when this was the last run using it.
  std::filesystem::remove(".bench_run", ignored);
  g_run_dir.clear();
}

void InstallSignalGuard() {
  sigset_t set = GuardedSignals();
  ::pthread_sigmask(SIG_BLOCK, &set, nullptr);
  g_signal_thread = std::thread([set] {
    int sig = 0;
    while (::sigwait(&set, &sig) == 0) {
      if (sig == SIGUSR2) {
        if (g_guard_shutdown.load()) return;
        continue;
      }
      std::fprintf(stderr, "perfbench: signal %d, stopping servers\n", sig);
      KillAllChildren();
      RemoveRunDir();
      ::_exit(128 + sig);
    }
  });
  struct sigaction action {};
  action.sa_handler = FatalSignalHandler;
  for (int sig : {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL}) {
    ::sigaction(sig, &action, nullptr);
  }
}

void ShutdownSignalGuard() {
  if (g_watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(g_watchdog_mu);
      g_watchdog_stop = true;
    }
    g_watchdog_cv.notify_all();
    g_watchdog.join();
  }
  if (!g_signal_thread.joinable()) return;
  g_guard_shutdown.store(true);
  ::pthread_kill(g_signal_thread.native_handle(), SIGUSR2);
  g_signal_thread.join();
}

void StartWatchdog(double seconds) {
  g_watchdog = std::thread([seconds] {
    std::unique_lock<std::mutex> lock(g_watchdog_mu);
    if (g_watchdog_cv.wait_for(lock, std::chrono::duration<double>(seconds),
                               [] { return g_watchdog_stop; })) {
      return;
    }
    std::fprintf(stderr, "perfbench: still running after %.0f s, giving up\n",
                 seconds);
    KillAllChildren();
    lock.unlock();
    RemoveRunDir();
    ::_exit(3);
  });
}

}  // namespace perfbench
