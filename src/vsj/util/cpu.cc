#include "vsj/util/cpu.h"

#include <cstdlib>

namespace vsj {

namespace {

#if defined(__x86_64__) || defined(__i386__)
#define VSJ_CPU_X86 1
#else
#define VSJ_CPU_X86 0
#endif

SimdLevel Detect() {
#if VSJ_CPU_X86
  // __builtin_cpu_supports is available on both GCC and Clang and performs
  // its own cpuid caching.
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

/// Detection, or scalar under VSJ_FORCE_SCALAR=1, resolved once. The
/// kernels read the result through ActiveSimdLevel() on every call, so the
/// test override below takes effect immediately.
SimdLevel ResolveEnvLevel() {
  const char* force_scalar = std::getenv("VSJ_FORCE_SCALAR");
  if (force_scalar != nullptr && force_scalar[0] == '1') {
    return SimdLevel::kScalar;
  }
  return Detect();
}

// Written only before kernels run (static init or the single-threaded test
// setter); read-only on the hot path, so a plain global is race-free.
SimdLevel g_active_level = ResolveEnvLevel();

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectSimdLevel() { return Detect(); }

SimdLevel ActiveSimdLevel() { return g_active_level; }

SimdLevel SetSimdLevel(SimdLevel level) {
  const SimdLevel detected = Detect();
  g_active_level = level < detected ? level : detected;
  return g_active_level;
}

void ResetSimdLevel() { g_active_level = ResolveEnvLevel(); }

}  // namespace vsj
