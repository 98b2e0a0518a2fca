// Deterministic fault injection: the failure-drill entry points.
//
// A *fault point* is a named site on a fragile path (io section writes,
// checkpoint commit, socket flushes, accept) where a test, a drill
// script, or an operator can arm a failure. Activation is deterministic
// and seedable — fail on the Nth hit, fail on every hit from the Nth on,
// or fail with a seeded Bernoulli draw — and each armed point selects
// the *kind* of failure it injects (an IoError class, a short write, a
// connection reset, a stall, a torn commit, or an outright SIGKILL for
// crash-recovery drills).
//
// One gate, at runtime: Enabled(), false until a point is armed. Arming
// happens programmatically (Arm / ArmFromString, used by tests) or
// through the VSJ_FAULTS environment variable, parsed on the first check:
//
//   VSJ_FAULTS='io.atomic.rename:nth=1:kind=crash,net.write:p=0.01:
//               seed=7:kind=short_write:arg=3'
//
// An unarmed site costs one once-flag check plus a relaxed atomic load.
//
// Naming scheme: <layer>.<site> with dots, lowercase — "io.atomic.fsync",
// "service.checkpoint", "registry.writeback", "net.frame". The full list
// lives in DESIGN.md "Fault injection & crash safety".
//
// Fault points never touch estimation: they draw from their own per-spec
// RNG, never the request streams, so arming a point that does not fire
// cannot perturb estimates (the bit-identity contract holds).

#ifndef VSJ_FAULT_FAULT_H_
#define VSJ_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "vsj/io/io_status.h"

// Always 1: servebench prints it; remove with the next benchmark change.
#define VSJ_FAULT_COMPILED 1

namespace vsj::fault {

/// What an armed point injects when it fires.
enum class FaultKind {
  kNone = 0,
  // IoStatus kinds — InjectedIoStatus maps them onto IoError, so io-layer
  // points can simulate every error class their callers must handle.
  kIoError,
  kNotFound,
  kBadMagic,
  kUnsupportedVersion,
  kCorrupt,
  kChecksumMismatch,
  // Transport kinds, interpreted by the net layer.
  kShortWrite,  ///< Cap one write() to `arg` bytes (default 1).
  kReset,       ///< Drop the connection without a response.
  // Commit kind, interpreted by AtomicFileWriter.
  kTorn,  ///< Truncate the payload to `arg` bytes, skip fsync, rename
          ///< anyway — simulates the power-loss torn write an unsafe
          ///< (no-fsync) writer would leave behind.
  // Self-handled kinds — CheckHit performs them and reports kNone.
  kStall,  ///< Sleep `arg` ms (default 50), then let the op proceed.
  kCrash,  ///< raise(SIGKILL): the crash-drill kill switch. The process
           ///< dies at the point with no destructors and no flushing,
           ///< exactly like an operator's kill -9 or a power cut.
};

/// Spec name of a kind ("io_error", "short_write", "crash", ...).
const char* FaultKindName(FaultKind kind);

/// One armed fault point.
struct FaultSpec {
  std::string point;
  FaultKind kind = FaultKind::kIoError;
  /// Fire on the nth hit (1-based). Ignored when probability > 0.
  uint64_t nth = 1;
  /// Keep firing on every hit >= nth (default: fire exactly once).
  bool repeat = false;
  /// When > 0: fire per-hit with this probability, drawn from a
  /// dedicated Rng seeded with `seed` (deterministic given hit order).
  double probability = 0.0;
  uint64_t seed = 1;
  /// Kind-specific parameter: bytes for kShortWrite/kTorn, ms for kStall.
  uint64_t arg = 0;
};

/// Outcome of checking a fault point: which kind fired (kNone almost
/// always) and the armed spec's `arg` for the site to interpret.
struct FaultHit {
  FaultKind kind = FaultKind::kNone;
  uint64_t arg = 0;
  bool fired() const { return kind != FaultKind::kNone; }
};

/// Fast gate the macros check before anything else. The first call parses
/// VSJ_FAULTS (if set); afterwards it is a relaxed atomic load that is
/// true iff at least one point is armed.
bool Enabled();

/// Arms (or re-arms, resetting hit counts) one fault point.
void Arm(const FaultSpec& spec);

/// Parses one "point[:key=value...]" spec. Keys: kind, nth, repeat, p,
/// seed, arg. Returns false with a diagnostic in *error on a bad spec.
bool ParseFaultSpec(const std::string& text, FaultSpec* spec,
                    std::string* error);

/// Arms a comma-separated list of specs (the VSJ_FAULTS format). Stops at
/// the first bad spec; points before it stay armed.
bool ArmFromString(const std::string& specs, std::string* error);

/// Disarms one point; true if it was armed.
bool Disarm(const std::string& point);

/// Disarms everything (test teardown).
void ClearAll();

/// Checks an armed point has the expected name spelling; hits observed /
/// activations so far (0 for unarmed points — unarmed hits aren't
/// tracked).
uint64_t HitCount(const std::string& point);
uint64_t FiredCount(const std::string& point);

/// Names of the currently armed points (startup banner, diagnostics).
std::vector<std::string> ArmedPoints();

/// Macro internals: records a hit on `point` and decides activation.
/// kStall sleeps and kCrash kills the process right here; every other
/// kind is returned for the site to act on.
FaultHit CheckHit(const char* point);

/// The IoStatus an io-layer site returns when its point fires: the kind
/// mapped onto IoError, reason "injected fault at <point>".
IoStatus InjectedIoStatus(const char* point, FaultKind kind,
                          const std::string& path);

}  // namespace vsj::fault

/// Evaluates to the FaultHit for `point` (a string literal); almost
/// always {kNone} — one once-flag check plus a relaxed load when nothing
/// is armed.
#define VSJ_FAULT_HIT(point)                                             \
  (::vsj::fault::Enabled() ? ::vsj::fault::CheckHit(point)               \
                           : ::vsj::fault::FaultHit{})

/// Io-layer fault point: when `point` fires, returns the injected
/// IoStatus (annotated with `path`) from the enclosing function.
#define VSJ_FAULT_IO(point, path)                                        \
  do {                                                                   \
    const ::vsj::fault::FaultHit vsj_fault_hit_ = VSJ_FAULT_HIT(point);  \
    if (vsj_fault_hit_.fired()) {                                        \
      return ::vsj::fault::InjectedIoStatus(point, vsj_fault_hit_.kind,  \
                                            path);                       \
    }                                                                    \
  } while (0)

#endif  // VSJ_FAULT_FAULT_H_
