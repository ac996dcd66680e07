#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Standalone timings of single layers at a workload's parameters, taken by
// the traced run after its timed phase (nothing else runs meanwhile).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/backend.h"
#include "util/statusor.h"

namespace perfbench {

/// Median wall-clock ms of crypto::DpfEvalFull on a fresh key of `depth`.
double DpfEvalFullMs(uint8_t depth, int reps);
/// Mean wall-clock us of crypto::DpfGen at `depth`.
double DpfGenUs(uint8_t depth, int reps);
/// Encrypt + decrypt throughput of crypto::Cipher on `plaintext_size`-byte
/// slots, in MiB of plaintext per second.
double CipherMibPerS(size_t plaintext_size);
/// Median kernels::SelectXorScan throughput over an `n` x `block_size`
/// arena, in GiB scanned per second.
double SelectXorScanGibPerS(uint64_t n, size_t block_size, int reps);
/// Replays `plan` (ExchangePlanFromTranscript of a recorded sample) against
/// an in-process `memory` backend of `n` x `block_size` marker blocks with
/// RunExchangePipeline at depth 1; returns microseconds per exchange.
dpstore::StatusOr<double> EngineExecuteUsPerExchange(
    uint64_t n, size_t block_size, std::vector<dpstore::StorageRequest> plan);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
