// Pluggable solver backends: every NPDP engine in the repository behind
// one name-resolved interface.
//
// Historically each engine — Fig. 1 reference, blocked serial, blocked
// task-queue parallel, TanNPDP, the cache-oblivious recursion, and the
// Cell simulator — was its own free function with its own plumbing, and
// the CLI / serve / bench layers hard-coded which one they called. The
// registry turns them into named SolverBackends that all take the same
// (NpdpInstance, ExecutionContext) pair: callers resolve by name
// ("blocked-parallel"), thread one context through (cancellation +
// deadline, tuning, stats sink, arena), and get a uniform result. Results
// are bit-identical to the concrete entry points each backend wraps
// (tests enforce this).
//
// This module sits above core, baselines, and cellsim on purpose: the
// engines do not know the registry exists.
#pragma once

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/execution_context.hpp"
#include "core/instance.hpp"
#include "layout/blocked.hpp"
#include "layout/triangular.hpp"
#include "simd/semiring.hpp"

namespace cellnpdp::backend {

/// Bit for one SemiringId in Capabilities::semirings.
constexpr unsigned semiring_bit(SemiringId id) {
  return 1u << static_cast<unsigned>(id);
}

/// Every semiring the engine family instantiates.
constexpr unsigned kAllSemirings = (1u << kSemiringCount) - 1u;

/// What a backend can do; `npdp backends` prints these columns.
struct Capabilities {
  bool single_precision = true;   ///< float tables (the serve/CLI type)
  bool double_precision = false;  ///< engine family also instantiates for
                                  ///< double (through the C++ API)
  bool weighted = false;          ///< general mode: weight and/or k-terms
  bool traceback = false;         ///< returns the solved table split_at
                                  ///< (core/traceback.hpp) reads
  bool parallel = false;          ///< honours ExecutionContext tuning.threads
  bool cancellable = false;       ///< polls the cancel token mid-solve
  bool timing_model = false;      ///< simulated Cell timing, not host speed
  bool arena = false;             ///< solves into ExecutionContext::arena
                                  ///< when the caller provides one
  bool self_checking = false;     ///< verifies block checksums and repairs
                                  ///< corrupted blocks during the solve
  unsigned semirings =            ///< bitmask of supported SemiringId values
      semiring_bit(SemiringId::MinPlus);
};

inline bool supports_semiring(const Capabilities& c, SemiringId id) {
  return (c.semirings & semiring_bit(id)) != 0;
}

/// Comma-joined names of the supported semirings ("min-plus,counting").
inline std::string semirings_string(const Capabilities& c) {
  std::string out;
  for (unsigned i = 0; i < kSemiringCount; ++i)
    if ((c.semirings & (1u << i)) != 0) {
      if (!out.empty()) out += ',';
      out += semiring_name(static_cast<SemiringId>(i));
    }
  return out;
}

/// Outcome of one backend solve. On SolveStatus::Cancelled only `status`
/// is meaningful. Exactly one of `blocked` / `tri` is set on success —
/// unless the solve ran into a caller-provided arena (ExecutionContext),
/// which then holds the table and both pointers stay null.
struct BackendResult {
  SolveStatus status = SolveStatus::Ok;
  double value = 0;        ///< d[0][n-1]
  double sim_seconds = 0;  ///< simulated wall time (timing backends only)
  std::shared_ptr<BlockedTriangularMatrix<float>> blocked;
  std::shared_ptr<TriangularMatrix<float>> tri;
};

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;
  virtual const char* name() const = 0;
  virtual Capabilities caps() const = 0;

  /// Solves `inst` under `ctx` (tuning, cancellation, stats, arena).
  /// Throws std::invalid_argument for instances outside the backend's
  /// capabilities (e.g. a weighted instance on a pure-only baseline).
  virtual BackendResult solve(const NpdpInstance<float>& inst,
                              const ExecutionContext& ctx) const = 0;
};

/// Resolution failure: unknown backend name. The CLI maps this onto its
/// bad-arguments exit code (3).
struct UnknownBackendError : std::invalid_argument {
  explicit UnknownBackendError(const std::string& name,
                               const std::string& known)
      : std::invalid_argument("unknown backend '" + name + "' (known: " +
                              known + ")") {}
};

class BackendRegistry {
 public:
  /// The process-wide registry, with every built-in backend registered on
  /// first use: reference, blocked-serial, blocked-parallel, tan,
  /// recursive, cellsim.
  static BackendRegistry& instance();

  /// Registers a backend; throws std::invalid_argument on duplicate name.
  void add(std::unique_ptr<SolverBackend> b);

  /// Null when the name is unknown.
  const SolverBackend* find(const std::string& name) const;

  /// All backends, sorted by name.
  std::vector<const SolverBackend*> list() const;

  /// Comma-separated sorted names (for error messages and --help).
  std::string known_names() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SolverBackend>> backends_;
};

/// find() or throw UnknownBackendError.
const SolverBackend& require_backend(const std::string& name);

}  // namespace cellnpdp::backend
