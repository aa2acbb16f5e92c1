#pragma once

// Per-program runtime context: the state that used to be process-wide
// singletons, factored out so several independent op2 programs (jobs —
// see op2/service.hpp) can share one process and one thread pool
// without sharing bookkeeping.
//
// A runtime_context scopes:
//  * the plan cache namespace — plan keys carry the owning context's
//    id, so a job's cached plans can be purged at teardown without
//    touching any other job's (op2/plan.hpp: plan_cache_purge);
//  * the reduction combine lock — the spinlock serialising reduction
//    scratch seeding/folding across the loops of ONE program
//    (exec/backend.hpp captured it per group; two jobs never share
//    reduction variables, so they need not share the lock either);
//  * the quarantine gate — the count of live poison spans that makes
//    the healthy issue path one relaxed load. Per-context, a fault in
//    one job never makes another job's issue path scan (or fail):
//    per-job fault isolation;
//  * issue metrics — loops issued under the context, read by the
//    service layer's per-job metrics.
//
// The *default* context (id 0) is the process-wide one every
// standalone program uses implicitly; all pre-service behaviour is the
// default context's behaviour. current_context() is thread-local and
// consulted at issue time only: a job's program runs with its context
// installed (context_scope), and everything a running sub-node needs
// later — combine lock, poison gate — is captured into the loop group
// at issue, so helping threads executing another job's nodes never
// read the wrong context.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include <hpxlite/util/spinlock.hpp>

namespace op2 {

class runtime_context {
public:
    /// The default (process-wide) context. Named contexts come from
    /// make_context(); ids are process-unique, 0 is the default.
    runtime_context() = default;
    explicit runtime_context(std::string name);

    runtime_context(runtime_context const&) = delete;
    runtime_context& operator=(runtime_context const&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::string const& name() const noexcept { return name_; }

    /// Diagnostic label for graph dumps: null for the default context
    /// (no tag — the pre-service output), the context's name otherwise.
    /// The pointer stays valid for the context's lifetime; dataflow
    /// nodes stamp it at issue like the (static-string) loop name, and
    /// every node's dats hold the context alive through dat_impl::ctx.
    [[nodiscard]] char const* label() const noexcept {
        return id_ == 0 ? nullptr : name_.c_str();
    }

    /// Reduction combine lock (see exec/backend.hpp: the dataflow
    /// backend's reduction scratch seeding and folding). One lock per context:
    /// loops of one program reducing into the same user variable
    /// serialise here; independent programs do not contend.
    hpxlite::util::spinlock combine_mtx;

    /// Count of live poison spans across this context's dats — the
    /// issue path's fast quarantine gate (exec/dataflow.hpp
    /// any_poisoned). Zero is the steady state of a healthy program.
    std::atomic<std::size_t> poison_spans{0};

    /// Loops issued under this context (any backend), counted at
    /// run_loop dispatch. The service layer's per-job metric.
    std::atomic<std::uint64_t> loops_issued{0};

    /// The process-wide default context (id 0). Never destroyed, like
    /// the inline globals it replaces, so dats finalised during static
    /// teardown can still reach their poison gate.
    static std::shared_ptr<runtime_context> const& default_context();

private:
    std::uint64_t id_ = 0;
    std::string name_;
};

/// Create a named context (fresh process-unique id).
std::shared_ptr<runtime_context> make_context(std::string name);

/// The calling thread's installed context; the default context when no
/// context_scope is active. Never null.
std::shared_ptr<runtime_context> const& current_context();

/// RAII installation of a context on the calling thread. Scopes nest
/// (stack discipline): a pool worker that helps run another job's task
/// mid-wait installs and restores correctly.
class context_scope {
public:
    explicit context_scope(std::shared_ptr<runtime_context> ctx);
    ~context_scope();

    context_scope(context_scope const&) = delete;
    context_scope& operator=(context_scope const&) = delete;

private:
    std::shared_ptr<runtime_context> prev_;
};

}  // namespace op2
