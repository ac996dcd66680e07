#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

/// One-line JSON object naming the host and build a result came from: CPU
/// model, nproc, the ISA flags the kernels care about, the dispatched
/// kernel variant (and any DPSTORE_KERNEL override), compiler, build type.
std::string HostFingerprintJson();

/// Escapes `s` for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
