#include "serve/solver_pool.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "apps/cyk/cyk.hpp"
#include "apps/matrix_chain/matrix_chain.hpp"
#include "apps/optimal_bst/optimal_bst.hpp"
#include "apps/zuker/fold.hpp"
#include "backend/solver_backend.hpp"
#include "common/fault_hook.hpp"
#include "common/rng.hpp"
#include "core/solve.hpp"
#include "obs/trace.hpp"

namespace cellnpdp::serve {

std::vector<float> chain_dims(const ChainSpec& c) {
  std::vector<float> dims(static_cast<std::size_t>(c.n) + 1);
  SplitMix64 rng(c.seed);
  for (auto& d : dims) d = float(8 + rng.next_below(120));
  return dims;
}

BstInstanceData<float> bst_data(const BstSpec& b) {
  SplitMix64 rng(b.seed);
  std::vector<float> p(static_cast<std::size_t>(b.keys) + 1, 0.0f);
  std::vector<float> q(static_cast<std::size_t>(b.keys) + 1, 0.0f);
  for (std::size_t i = 1; i < p.size(); ++i)
    p[i] = float(rng.next_in(0.01, 1.0));
  for (auto& v : q) v = float(rng.next_in(0.01, 1.0));
  return make_bst_data(std::move(p), std::move(q));
}

SolverPool::SolverPool(std::size_t workers) : pool_(workers) {}

std::uint64_t SolverPool::arena_allocations() const {
  std::lock_guard lk(mu_);
  return arena_allocs_;
}

std::uint64_t SolverPool::arena_reuses() const {
  std::lock_guard lk(mu_);
  return arena_reuses_;
}

SolverPool::Arena* SolverPool::checkout(index_t n, index_t bs, bool* reused) {
  std::lock_guard lk(mu_);
  Arena* any_free = nullptr;
  for (auto& a : arenas_) {
    if (a->in_use) continue;
    if (a->n == n && a->bs == bs) {
      a->in_use = true;
      ++arena_reuses_;
      *reused = true;
      return a.get();
    }
    if (any_free == nullptr) any_free = a.get();
  }
  *reused = false;
  ++arena_allocs_;
  if (any_free != nullptr) {
    // Repurpose a free arena of the wrong shape.
    any_free->n = n;
    any_free->bs = bs;
    any_free->mat = std::make_unique<BlockedTriangularMatrix<float>>(n, bs);
    any_free->in_use = true;
    return any_free;
  }
  arenas_.push_back(std::make_unique<Arena>());
  Arena* a = arenas_.back().get();
  a->n = n;
  a->bs = bs;
  a->mat = std::make_unique<BlockedTriangularMatrix<float>>(n, bs);
  a->in_use = true;
  return a;
}

void SolverPool::checkin(Arena* a) {
  std::lock_guard lk(mu_);
  a->in_use = false;
}

SolveOutcome SolverPool::execute(const Request& req, const CancelToken& cancel,
                                 const std::string& default_backend) {
  CELLNPDP_TRACE_SPAN("serve", "execute");
  SolveOutcome out;
  try {
    // Fault site for the serve pipeline: a request-level throw exercises
    // the retry/breaker/fallback ladder, a stall makes this request a
    // straggler for the hedge watchdog. Zero cost with no hook installed.
    maybe_inject_task_fault(static_cast<std::int64_t>(req.id),
                            static_cast<std::int64_t>(req.payload.index()));
    if (const auto* s = std::get_if<SolveSpec>(&req.payload)) {
      if (s->n < 1) throw std::invalid_argument("solve needs n >= 1");
      const std::string& name = !s->backend.empty()      ? s->backend
                                : !default_backend.empty() ? default_backend
                                                           : "blocked-serial";
      out.backend_used = name;
      const backend::SolverBackend& be = backend::require_backend(name);
      NpdpInstance<float> inst;
      inst.n = s->n;
      inst.semiring = s->semiring;
      const std::uint64_t seed = s->seed;
      const SemiringId sr = s->semiring;
      inst.init = [seed, sr](index_t i, index_t j) {
        return semiring_init_value<float>(sr, seed, i, j);
      };
      ExecutionContext ctx;
      ctx.cancel = cancel;
      ctx.tuning.block_side = s->block_side;
      ctx.tuning.kernel = s->kernel;
      ctx.tuning.threads = 1;
      Arena* a = nullptr;
      bool reused = false;
      if (be.caps().arena) {
        a = checkout(s->n, s->block_side, &reused);
        // The solve seeds every block it relaxes, so a reused arena needs
        // no clearing; only its pad must match the semiring (fresh arenas
        // come min-plus-padded).
        const float pad = semiring_zero<float>(s->semiring);
        if (a->mat->pad() != pad) a->mat->reset(pad);
        ctx.arena = a->mat.get();
      }
      backend::BackendResult r;
      try {
        r = be.solve(inst, ctx);
      } catch (...) {
        if (a != nullptr) checkin(a);
        throw;
      }
      if (a != nullptr) checkin(a);
      out.arena_reused = reused;
      if (r.status == SolveStatus::Cancelled) {
        out.cancelled = true;
        out.error = cancel_reason_name(cancel.reason());
        return out;
      }
      out.value = r.value;
      out.ok = true;
    } else if (const auto* f = std::get_if<FoldSpec>(&req.payload)) {
      out.backend_used = "zuker";
      const std::vector<zuker::Base> seq =
          f->seq.empty() ? zuker::random_sequence(f->random_n, f->seed)
                         : zuker::parse_sequence(f->seq);
      zuker::FoldOptions fo;
      fo.cancel = cancel;
      zuker::ZukerFolder folder(zuker::EnergyModel{}, fo);
      const auto r = folder.fold(seq);
      if (r.cancelled) {
        out.cancelled = true;
        out.error = cancel_reason_name(cancel.reason());
        return out;
      }
      out.value = double(r.mfe);
      out.detail = r.structure;
      out.ok = true;
    } else if (const auto* c = std::get_if<ChainSpec>(&req.payload)) {
      if (c->n < 1) throw std::invalid_argument("chain needs n >= 1");
      out.backend_used = "chain";
      const std::vector<float> dims = chain_dims(*c);
      ExecutionContext ctx;
      ctx.cancel = cancel;
      ctx.tuning.threads = 1;
      MatrixChainResult<float> r;
      const SolveStatus st = solve_matrix_chain(dims, ctx, &r);
      if (st == SolveStatus::Cancelled) {
        out.cancelled = true;
        out.error = cancel_reason_name(cancel.reason());
        return out;
      }
      out.value = double(r.cost);
      // The rendered parenthesization grows linearly; only echo it for
      // chains short enough that a human would read it.
      if (c->n <= 16) out.detail = r.parenthesization;
      out.ok = true;
    } else if (const auto* b = std::get_if<BstSpec>(&req.payload)) {
      if (b->keys < 1) throw std::invalid_argument("bst needs keys >= 1");
      out.backend_used = "bst";
      const BstInstanceData<float> d = bst_data(*b);
      ExecutionContext ctx;
      ctx.cancel = cancel;
      ctx.tuning.threads = 1;
      float cost = 0;
      const SolveStatus st = solve_optimal_bst(d, ctx, &cost);
      if (st == SolveStatus::Cancelled) {
        out.cancelled = true;
        out.error = cancel_reason_name(cancel.reason());
        return out;
      }
      out.value = double(cost);
      out.ok = true;
    } else {
      const auto& p = std::get<ParseSpec>(req.payload);
      out.backend_used = "cyk";
      const bool parens = p.grammar == ParseSpec::GrammarKind::Parens;
      cyk::Grammar g =
          parens ? cyk::balanced_parens_grammar() : cyk::anbn_grammar();
      cyk::CykParser parser(std::move(g));
      const auto r = parser.parse(
          cyk::tokens_from_string(p.text, parens ? "()" : "ab"));
      out.value = r.accepted() ? double(r.cost) : -1.0;
      out.detail = r.accepted() ? "accepted" : "rejected";
      out.ok = true;
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  } catch (...) {
    out.ok = false;
    out.error = "unknown solver exception";
  }
  return out;
}

}  // namespace cellnpdp::serve
