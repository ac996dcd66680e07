#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "analysis/driver.h"
#include "crypto/cipher.h"
#include "crypto/dpf.h"
#include "crypto/prg.h"
#include "storage/block.h"
#include "storage/kernels.h"
#include "util/random.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Keeps a computed value observable so the timed work is not elided.
volatile uint64_t g_sink = 0;

}  // namespace

double DpfEvalFullMs(uint8_t depth, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    auto keys = dpstore::crypto::DpfGen(static_cast<uint64_t>(r) * 7919 %
                                            (uint64_t{1} << depth),
                                        depth);
    if (!keys.ok()) return 0.0;
    const Clock::time_point start = Clock::now();
    const std::vector<uint64_t> bits = dpstore::crypto::DpfEvalFull(keys->key0);
    ms.push_back(SecondsSince(start) * 1e3);
    g_sink = g_sink + bits[bits.size() / 2];
  }
  return Median(ms);
}

double DpfGenUs(uint8_t depth, int reps) {
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < reps; ++r) {
    auto keys = dpstore::crypto::DpfGen(
        static_cast<uint64_t>(r) % (uint64_t{1} << depth), depth);
    if (!keys.ok()) return 0.0;
    g_sink = g_sink + keys->key0.root_seed[0];
  }
  return SecondsSince(start) * 1e6 / reps;
}

double CipherMibPerS(size_t plaintext_size) {
  const dpstore::crypto::Cipher cipher(dpstore::crypto::RandomChaChaKey());
  const size_t slot_size =
      dpstore::crypto::Cipher::CiphertextSize(plaintext_size);
  constexpr size_t kSlots = 1024;
  std::vector<uint8_t> arena(slot_size * kSlots, 0x5a);
  uint64_t bytes = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 0.3) {
    for (size_t i = 0; i < kSlots; ++i) {
      dpstore::MutableBlockView slot(arena.data() + i * slot_size, slot_size);
      cipher.EncryptInPlace(slot);
      auto plain = cipher.DecryptInPlace(slot);
      if (!plain.ok()) return 0.0;
      g_sink = g_sink + (*plain)[0];
    }
    bytes += kSlots * plaintext_size;
  }
  return static_cast<double>(bytes) / (1 << 20) / SecondsSince(start);
}

double SelectXorScanGibPerS(uint64_t n, size_t block_size, int reps) {
  std::vector<uint8_t> arena(n * block_size);
  dpstore::Rng rng(0x5eed);
  for (size_t i = 0; i < arena.size(); i += 8) {
    const uint64_t word = rng.NextUint64();
    std::memcpy(arena.data() + i, &word, std::min<size_t>(8, arena.size() - i));
  }
  std::vector<uint64_t> bits((n + 63) / 64);
  for (uint64_t& w : bits) w = rng.NextUint64();
  std::vector<uint8_t> out(block_size);
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    std::fill(out.begin(), out.end(), 0);
    const Clock::time_point start = Clock::now();
    dpstore::kernels::SelectXorScan(out.data(), arena.data(), n, block_size,
                                    bits.data(), 0);
    const double secs = SecondsSince(start);
    g_sink = g_sink + out[0];
    rates.push_back(static_cast<double>(arena.size()) / (1 << 30) / secs);
  }
  return Median(rates);
}

dpstore::StatusOr<double> EngineExecuteUsPerExchange(
    uint64_t n, size_t block_size, std::vector<dpstore::StorageRequest> plan) {
  std::unique_ptr<dpstore::StorageBackend> memory = dpstore::MakeBackend(
      dpstore::MemoryBackendFactory(/*counting_only=*/true), n, block_size);
  std::vector<dpstore::Block> markers;
  markers.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    markers.push_back(dpstore::MarkerBlock(i, block_size));
  }
  DPSTORE_RETURN_IF_ERROR(memory->SetArray(std::move(markers)));
  DPSTORE_ASSIGN_OR_RETURN(
      dpstore::PipelineReport report,
      dpstore::RunExchangePipeline(memory.get(), std::move(plan), 1));
  return report.exchanges == 0 ? 0.0 : report.MsPerExchange() * 1e3;
}

}  // namespace perfbench
