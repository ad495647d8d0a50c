// Built-in solver backends: thin adapters from the registry interface onto
// the concrete engines. Each adapter only translates (instance, context)
// into the engine's native calling convention — tuning comes from
// ctx.tuning, cancellation from ctx.cancel, the arena from ctx.arena — so
// results stay bit-identical to calling the engine directly with the same
// options (tests/test_cancel.cpp enforces this per backend).
#include "backend/solver_backend.hpp"

#include <algorithm>
#include <utility>

#include "baselines/recursive_npdp.hpp"
#include "baselines/tan_npdp.hpp"
#include "cellsim/config.hpp"
#include "cellsim/npdp_sim.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"

namespace cellnpdp::backend {

namespace {

double top_value(const TriangularMatrix<float>& d) {
  return d.size() > 0 ? double(d.at(0, d.size() - 1)) : 0.0;
}

double top_value(const BlockedTriangularMatrix<float>& d) {
  return d.size() > 0 ? double(d.at(0, d.size() - 1)) : 0.0;
}

void require_pure(const char* name, const NpdpInstance<float>& inst) {
  if (inst.general_mode())
    throw std::invalid_argument(std::string("backend '") + name +
                                "' solves pure-mode instances only "
                                "(no weight / k-term)");
}

void require_semiring(const SolverBackend& b,
                      const NpdpInstance<float>& inst) {
  if (!supports_semiring(b.caps(), inst.semiring))
    throw std::invalid_argument(
        std::string("backend '") + b.name() + "' does not support the " +
        std::string(semiring_name(inst.semiring)) + " semiring (supported: " +
        semirings_string(b.caps()) + ")");
}

/// Fig. 1 golden model: the correctness oracle, O(n^3) scalar.
struct ReferenceBackend final : SolverBackend {
  const char* name() const override { return "reference"; }
  Capabilities caps() const override {
    Capabilities c;
    c.double_precision = true;
    c.weighted = true;
    c.cancellable = true;
    c.semirings = kAllSemirings;
    return c;
  }
  BackendResult solve(const NpdpInstance<float>& inst,
                      const ExecutionContext& ctx) const override {
    BackendResult r;
    if (inst.semiring != SemiringId::MinPlus) {
      // The generic golden model has no mid-solve cancellation point; it
      // is host-fast at every size the CLI/serve layers accept.
      auto d = solve_reference_any(inst);
      r.value = top_value(d);
      r.tri = std::make_shared<TriangularMatrix<float>>(std::move(d));
      return r;
    }
    bool completed = true;
    auto d = solve_reference(inst, ctx.cancel, &completed);
    if (!completed) {
      r.status = SolveStatus::Cancelled;
      return r;
    }
    r.value = top_value(d);
    r.tri = std::make_shared<TriangularMatrix<float>>(std::move(d));
    return r;
  }
};

/// Shared body of the blocked-engine backends: solve_blocked_into under
/// `ctx`, into ctx.arena when the caller provided one (serve's per-worker
/// workspace), into a fresh table otherwise.
BackendResult solve_blocked_backend(const NpdpInstance<float>& inst,
                                    const ExecutionContext& ctx,
                                    bool checksums = false) {
  BackendResult r;
  if (ctx.arena != nullptr) {
    r.status = solve_blocked_into(*ctx.arena, inst, ctx, checksums);
    if (r.status == SolveStatus::Ok) r.value = top_value(*ctx.arena);
    return r;
  }
  auto mat = std::make_shared<BlockedTriangularMatrix<float>>(
      inst.n, ctx.tuning.block_side, semiring_zero<float>(inst.semiring));
  r.status = solve_blocked_into(*mat, inst, ctx, checksums);
  if (r.status == SolveStatus::Ok) {
    r.value = top_value(*mat);
    r.blocked = std::move(mat);
  }
  return r;
}

/// Fig. 4(b): one worker walking the blocked triangular layout.
struct BlockedSerialBackend final : SolverBackend {
  const char* name() const override { return "blocked-serial"; }
  Capabilities caps() const override {
    Capabilities c;
    c.double_precision = true;
    c.weighted = true;
    c.traceback = true;
    c.cancellable = true;
    c.arena = true;
    c.semirings = kAllSemirings;
    return c;
  }
  BackendResult solve(const NpdpInstance<float>& inst,
                      const ExecutionContext& ctx) const override {
    ExecutionContext one = ctx;
    one.tuning.threads = 1;
    return solve_blocked_backend(inst, one);
  }
};

/// Tier 2: scheduling blocks on tuning.threads workers.
struct BlockedParallelBackend final : SolverBackend {
  const char* name() const override { return "blocked-parallel"; }
  Capabilities caps() const override {
    Capabilities c;
    c.double_precision = true;
    c.weighted = true;
    c.traceback = true;
    c.parallel = true;
    c.cancellable = true;
    c.arena = true;
    c.semirings = kAllSemirings;
    return c;
  }
  BackendResult solve(const NpdpInstance<float>& inst,
                      const ExecutionContext& ctx) const override {
    return solve_blocked_backend(inst, ctx);
  }
};

/// TanNPDP comparator (tile = tuning.block_side, threads from tuning).
struct TanBackend final : SolverBackend {
  const char* name() const override { return "tan"; }
  Capabilities caps() const override {
    Capabilities c;
    c.double_precision = true;
    c.parallel = true;
    c.cancellable = true;
    return c;
  }
  BackendResult solve(const NpdpInstance<float>& inst,
                      const ExecutionContext& ctx) const override {
    require_pure(name(), inst);
    require_semiring(*this, inst);
    BackendResult r;
    auto d = std::make_shared<TriangularMatrix<float>>(inst.n);
    d->fill(inst.init);
    TanOptions topt;
    topt.tile = std::max<index_t>(4, ctx.tuning.block_side);
    topt.threads = ctx.tuning.threads;
    if (!solve_tan_npdp(*d, topt, ctx.cancel)) {
      r.status = SolveStatus::Cancelled;
      return r;
    }
    r.value = top_value(*d);
    r.tri = std::move(d);
    return r;
  }
};

/// Cache-oblivious recursion (Chowdhury & Ramachandran style).
struct RecursiveBackend final : SolverBackend {
  const char* name() const override { return "recursive"; }
  Capabilities caps() const override {
    Capabilities c;
    c.double_precision = true;
    c.cancellable = true;
    return c;
  }
  BackendResult solve(const NpdpInstance<float>& inst,
                      const ExecutionContext& ctx) const override {
    require_pure(name(), inst);
    require_semiring(*this, inst);
    BackendResult r;
    bool completed = true;
    auto d = solve_recursive(inst, RecursiveOptions{}, ctx.cancel, &completed);
    if (!completed) {
      r.status = SolveStatus::Cancelled;
      return r;
    }
    r.value = top_value(d);
    r.tri = std::make_shared<TriangularMatrix<float>>(std::move(d));
    return r;
  }
};

/// CellNPDP on the simulated QS20: functional execution (real values)
/// with modelled Cell timing in sim_seconds. Not cancellable — the event
/// simulation runs to completion once started (it is host-fast even for
/// the Table II sizes).
struct CellSimBackend final : SolverBackend {
  const char* name() const override { return "cellsim"; }
  Capabilities caps() const override {
    Capabilities c;
    c.double_precision = true;
    c.weighted = true;
    c.parallel = true;
    c.timing_model = true;
    return c;
  }
  BackendResult solve(const NpdpInstance<float>& inst,
                      const ExecutionContext& ctx) const override {
    require_semiring(*this, inst);
    CellSimOptions o;
    o.mode = ExecMode::Functional;
    o.block_side = ctx.tuning.block_side;
    o.sched_side = std::max<index_t>(1, ctx.tuning.sched_side);
    o.simd = ctx.tuning.kernel != KernelKind::Scalar;
    BackendResult r;
    auto mat = std::make_shared<BlockedTriangularMatrix<float>>(
        inst.n, ctx.tuning.block_side);
    const auto res = simulate_cellnpdp(inst, qs20(), o, mat.get());
    r.sim_seconds = res.seconds;
    r.value = top_value(*mat);
    r.blocked = std::move(mat);
    if (ctx.stats != nullptr) {
      ctx.stats->wall_seconds = res.seconds;
      ctx.stats->worker_busy = res.spe_busy;
      ctx.stats->worker_tasks = res.spe_tasks;
      ctx.stats->tasks = res.tasks;
    }
    return r;
  }
};

/// Self-checking blocked solve: the blocked solve with block checksums on
/// and a retry budget of 4 attempts unless ctx.retry sets one.
/// Bit-identical to blocked-serial on a clean run; under an active fault
/// plan it detects injected throws/corruption and heals at block
/// granularity.
struct ResilientBackend final : SolverBackend {
  const char* name() const override { return "resilient"; }
  Capabilities caps() const override {
    Capabilities c;
    c.double_precision = true;
    c.weighted = true;
    c.parallel = true;
    c.cancellable = true;
    c.arena = true;
    c.self_checking = true;
    c.semirings = kAllSemirings;
    return c;
  }
  BackendResult solve(const NpdpInstance<float>& inst,
                      const ExecutionContext& ctx) const override {
    ExecutionContext healing = ctx;
    if (!healing.retry.enabled()) healing.retry.max_attempts = 4;
    return solve_blocked_backend(inst, healing, /*checksums=*/true);
  }
};

void register_builtins(BackendRegistry& reg) {
  reg.add(std::make_unique<ReferenceBackend>());
  reg.add(std::make_unique<BlockedSerialBackend>());
  reg.add(std::make_unique<BlockedParallelBackend>());
  reg.add(std::make_unique<TanBackend>());
  reg.add(std::make_unique<RecursiveBackend>());
  reg.add(std::make_unique<CellSimBackend>());
  reg.add(std::make_unique<ResilientBackend>());
}

}  // namespace

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry* reg = [] {
    auto* r = new BackendRegistry;
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

void BackendRegistry::add(std::unique_ptr<SolverBackend> b) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& existing : backends_)
    if (std::string(existing->name()) == b->name())
      throw std::invalid_argument(std::string("duplicate backend '") +
                                  b->name() + "'");
  backends_.push_back(std::move(b));
}

const SolverBackend* BackendRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& b : backends_)
    if (name == b->name()) return b.get();
  return nullptr;
}

std::vector<const SolverBackend*> BackendRegistry::list() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const SolverBackend*> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b.get());
  std::sort(out.begin(), out.end(),
            [](const SolverBackend* a, const SolverBackend* b) {
              return std::string(a->name()) < b->name();
            });
  return out;
}

std::string BackendRegistry::known_names() const {
  std::string names;
  for (const SolverBackend* b : list()) {
    if (!names.empty()) names += ", ";
    names += b->name();
  }
  return names;
}

const SolverBackend& require_backend(const std::string& name) {
  const SolverBackend* b = BackendRegistry::instance().find(name);
  if (b == nullptr)
    throw UnknownBackendError(name,
                              BackendRegistry::instance().known_names());
  return *b;
}

}  // namespace cellnpdp::backend
