#include "host.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "storage/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

std::string HostFingerprintJson() {
  std::string model = "unknown";
  std::set<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (line.rfind("model name", 0) == 0 && model == "unknown") {
      model = value;
    } else if (line.rfind("flags", 0) == 0 && flags.empty()) {
      std::istringstream words(value);
      std::string flag;
      static const std::set<std::string> kInteresting = {
          "sse2", "ssse3", "sse4_1", "sse4_2", "avx", "avx2",
          "avx512f", "avx512bw", "aes", "pclmulqdq", "sha_ni", "bmi2"};
      while (words >> flag) {
        if (kInteresting.count(flag) != 0) flags.insert(flag);
      }
    }
  }
  std::string isa;
  for (const std::string& f : flags) isa += (isa.empty() ? "" : " ") + f;
  const char* forced = std::getenv("DPSTORE_KERNEL");
  std::string compiler = "unknown";
#if defined(__clang__)
  compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  compiler = std::string("gcc ") + __VERSION__;
#endif
  std::ostringstream out;
  out << "{\"cpu\": \"" << JsonEscape(model) << "\", \"nproc\": "
      << ::sysconf(_SC_NPROCESSORS_ONLN) << ", \"isa\": \"" << isa
      << "\", \"kernel_variant\": \""
      << dpstore::kernels::VariantName(dpstore::kernels::ActiveVariant())
      << "\", \"dpstore_kernel_env\": \""
      << JsonEscape(forced == nullptr ? "" : forced) << "\", \"compiler\": \""
      << JsonEscape(compiler) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

}  // namespace perfbench
