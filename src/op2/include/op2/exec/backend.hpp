#pragma once

// The unified executor backend layer: one templated entry point
// (run_loop) dispatching a loop onto the backend selected by
// loop_options::backend. All three backends share the plan (block
// colouring + staged gather tables) and the staged loop_executor — the
// backends differ only in *when* the sweep runs (inline, fork-join, or
// asynchronously out of the epoch dataflow graph) and in how blocks are
// distributed over workers.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <hpxlite/algorithms/for_loop.hpp>
#include <hpxlite/execution/policy.hpp>
#include <hpxlite/runtime.hpp>
#include <hpxlite/util/timing.hpp>
#include <op2/detail/executor.hpp>
#include <op2/exec/backend_kind.hpp>
#include <op2/exec/dataflow.hpp>
#include <op2/fault.hpp>
#include <op2/loop_options.hpp>
#include <op2/plan.hpp>
#include <op2/timing.hpp>

namespace op2::exec {

/// Completion handle of an issued loop. Synchronous backends return a
/// ready handle (no node); the dataflow backend returns a handle on the
/// loop's graph node. Copyable, cheap (one intrusive ref).
class loop_handle {
public:
    loop_handle() noexcept = default;
    explicit loop_handle(node_ref n) noexcept : node_(std::move(n)) {}

    /// True when the handle refers to an asynchronously issued loop.
    [[nodiscard]] bool valid() const noexcept {
        return static_cast<bool>(node_);
    }

    [[nodiscard]] bool is_ready() const noexcept {
        return !node_ || node_->done();
    }

    /// Block (cooperatively: helps the pool) until the loop completed.
    /// No-op for handles of synchronous backends.
    void wait() const {
        if (node_) {
            node_->wait();
        }
    }

    /// wait(), then rethrow the loop's failure, if any.
    void get() const {
        if (node_) {
            node_->wait_and_rethrow();
        }
    }

    /// Bounded wait: true when the loop completed within `timeout`
    /// (immediately true for the ready handles of synchronous
    /// backends). On false the graph is stalled or still running — the
    /// handle stays waitable, and exec::dump_graph names the pending
    /// sub-nodes.
    template <typename Rep, typename Period>
    [[nodiscard]] bool wait_for(
        std::chrono::duration<Rep, Period> timeout) const {
        return !node_ ||
               node_->wait_for(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       timeout));
    }

private:
    node_ref node_;
};

namespace detail {

// Guard for the dataflow backend's reduction scratch seeding and
// folding: the issuing context's combine lock
// (runtime_context::combine_mtx), captured into each loop group at
// issue. One lock across all loops *of one program*, not one per loop:
// two loops reducing into the same user variable can have their
// sub-nodes in flight concurrently (gbl args create no graph edges),
// and the variable's read-modify-write must not tear between them.
// Seeds and folds are short and run once per slice and once per loop,
// so one spinlock per context costs nothing — and independent service
// jobs (which never share reduction variables) never contend on it.

// --- quarantine (issue-side) ----------------------------------------------

/// Issue-time quarantine gate shared by every backend. Two passes:
/// first fail fast when any dat the loop *consumes* (any access but
/// OP_WRITE — OP_RW and OP_INC read their targets) holds a poison
/// span, composing the structured diagnostic naming the origin loop,
/// partition and colour; then, for a clean loop, heal dats it fully
/// overwrites (direct OP_WRITE args), since no stale byte survives a
/// full overwrite. Behind the any_poisoned() gate the healthy-path
/// cost is one relaxed load.
template <typename Args>
[[nodiscard]] std::exception_ptr check_quarantine(Args const& args,
                                                  char const* name) {
    if (!any_poisoned()) {
        return nullptr;
    }
    for (op_arg const& a : args) {
        if (!a.dat.valid() || a.acc == op_access::OP_WRITE) {
            continue;
        }
        if (auto info =
                a.dat.internal().dep.find_poison(0, a.dat.set().size())) {
            std::string msg =
                "op2.quarantine: loop '" + std::string(name) +
                "' reads poisoned dat '" + a.dat.name() + "': partition " +
                std::to_string(info->partition) + " colour " +
                std::to_string(info->color) + " of loop '" + info->loop +
                "' failed: " + describe_exception(info->origin);
            return std::make_exception_ptr(
                quarantine_error(msg, std::move(info)));
        }
    }
    for (op_arg const& a : args) {
        if (a.dat.valid() && a.acc == op_access::OP_WRITE &&
            a.is_direct()) {
            a.dat.internal().dep.clear_poison();
        }
    }
    return nullptr;
}

/// Quarantine the written dats of a synchronously failed loop
/// (seq/staged backends: the kernel threw mid-sweep, so any written
/// range may be half-updated). Whole-dat spans — synchronous sweeps
/// have no partition attribution. Best-effort, called from a catch
/// block (std::current_exception() is the origin).
template <typename Args>
void poison_sync_failure(Args const& args, char const* name) noexcept {
    try {
        auto const origin = std::current_exception();
        for (op_arg const& a : args) {
            if (!a.dat.valid() || a.acc == op_access::OP_READ) {
                continue;
            }
            auto info = std::make_shared<poison_info>();
            info->loop = name;
            info->dat = a.dat.name();
            info->origin = origin;
            a.dat.internal().dep.add_poison(0, a.dat.set().size(),
                                            std::move(info));
        }
    } catch (...) {
        // Out of memory while reporting: the original error still
        // propagates, exactly the pre-quarantine behaviour.
    }
}

/// The staged backend's plan-driven sweep: per colour, a fork-join
/// for_loop over the colour's blocks through the staged executor, timed
/// under the backend's name.
template <typename Kernel, std::size_t N>
void staged_sweep(op2::detail::loop_executor<Kernel, N>& ex,
                  op_plan const& plan, char const* name) {
    auto const policy = hpxlite::execution::par.with(ex.options().chunk);
    hpxlite::util::stopwatch sw;
    ex.execute(plan, [&](std::span<std::size_t const> blocks) {
        hpxlite::parallel::for_loop(
            policy, std::size_t{0}, blocks.size(),
            [&](std::size_t k) { ex.run_block(plan, blocks[k]); });
    });
    op_timing_record(name, to_string(backend_kind::staged), sw.elapsed_s());
}

template <typename Kernel, std::size_t N>
class loop_group;

/// Park a retired group in the cross-issue pool (defined with
/// group_pool below; forward-declared so loop_group::release can name
/// it).
template <typename Kernel, std::size_t N>
void pool_put(loop_group<Kernel, N>* g) noexcept;

/// Shared state of one dataflow loop issue: one executor bound to the
/// whole-set plan the staged backend runs (same blocks, colours and
/// staged tables), serving every (colour, slice) sub-node, plus the
/// plan's slicing at the pool's worker count. Sub-nodes and the join
/// node share it through group_ref (an embedded intrusive count — no
/// shared_ptr control-block allocation per issue) and drop their
/// references in on_complete(), which is what breaks the dat -> record
/// -> node -> group -> dat cycle once the loop has run. The last drop
/// parks the group in the per-instantiation cross-issue pool, so a
/// steady-state chain re-issues a loop without reconstructing its
/// executor or reallocating its reduction scratch.
template <typename Kernel, std::size_t N>
class loop_group {
public:
    loop_group(op_set const& set, std::array<op_arg, N> const& args,
               Kernel const& kernel, loop_options const& opts,
               char const* name)
      : ex_(set, args, kernel, opts), ctx_(current_context()), name_(name) {}

    /// Re-arm a pool-recycled group for a new issue of the same call
    /// site. The executor keeps its reduction scratch capacity (contents
    /// are re-seeded per slice by seed_scratch).
    void reset(op_set const& set, std::array<op_arg, N> const& args,
               Kernel const& kernel, loop_options const& opts,
               char const* name) {
        // Pooled groups cross issue sites, and under the service layer
        // cross jobs: re-capture the issuing context (combine lock,
        // kept alive for the nodes' lifetime).
        ctx_ = current_context();
        name_ = name;
        start_ns_.store(-1, std::memory_order_relaxed);
        ex_.rebind(set, args, kernel, opts);
    }

    /// Intrusive reference count (see group_ref). The last release
    /// runs well after release_handles() — join and sub-nodes drop
    /// their references in on_complete — so a parked group holds no
    /// dat references.
    void add_ref() noexcept {
        refs_.fetch_add(1, std::memory_order_relaxed);
    }
    void release() noexcept {
        if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            pool_put(this);
        }
    }

    [[nodiscard]] op2::detail::loop_executor<Kernel, N>& executor() {
        return ex_;
    }
    [[nodiscard]] char const* name() const noexcept { return name_; }

    /// Bind the plan and its slicing and arm the slice countdown with
    /// the number of non-empty slices. Issue time, before any sub-node
    /// exists.
    void bind(op_plan const& plan, plan_slicing const& slicing,
              std::size_t live) {
        plan_ = &plan;
        slicing_ = &slicing;
        ex_.setup(plan);
        slices_left_.store(live, std::memory_order_relaxed);
    }

    /// First sub-node to run stamps the loop's execution start; the
    /// join reads the span. This keeps the hpx_dataflow timing row a
    /// *wall* time (first block to last fold), comparable with the
    /// seq/staged rows — not a sum of concurrent sub-node CPU times.
    void mark_start() noexcept {
        std::int64_t expected = -1;
        (void)start_ns_.compare_exchange_strong(expected, now_ns(),
                                                std::memory_order_relaxed);
    }
    [[nodiscard]] double wall_seconds() const noexcept {
        std::int64_t const s = start_ns_.load(std::memory_order_relaxed);
        return s < 0 ? 0.0 : static_cast<double>(now_ns() - s) * 1e-9;
    }

    /// Run slice s of the slicing: seed its own blocks' reduction
    /// partials, run its blocks, and — on the loop's last slice to
    /// finish — fold every block's partials in block order, exactly as
    /// the staged backend does. The fold runs with the sub-nodes, not
    /// after them, so a fence that drains the dat records also covers
    /// the reductions. Seeds and the fold hold the context's combine
    /// lock: MIN/MAX partials read the user's variable, which another
    /// loop's fold may be writing.
    void run_slice(std::size_t s) {
        auto const blocks = plan_->blocks_of_slice(*slicing_, s);
        if (ex_.reduces()) {
            std::lock_guard<hpxlite::util::spinlock> lk(ctx_->combine_mtx);
            ex_.seed_scratch(blocks);
        }
        for (std::size_t b : blocks) {
            ex_.run_block(*plan_, b);
        }
        if (slices_left_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            ex_.reduces()) {
            std::lock_guard<hpxlite::util::spinlock> lk(ctx_->combine_mtx);
            ex_.combine();
        }
    }

    /// Drop what the group holds of the issue once its loop has run:
    /// the dat handles and the issuing context. A parked group then
    /// keeps neither a dat nor a retired service job's context alive
    /// (reset() re-captures the context at the next issue).
    void release_handles() noexcept {
        ex_.release_handles();
        ctx_.reset();
    }

    /// Quarantine every dat span slice s could have half-written — the
    /// partitions its footprints name for each written argument —
    /// attributed to (this loop, the slice's index within its colour,
    /// the colour) with `origin` chained into the diagnostic. Called
    /// from a failed sub-node's on_complete, while the executor still
    /// holds its handles (noexcept there, so best-effort: an allocation
    /// failure leaves plain error propagation).
    void poison_slice(std::size_t s, std::exception_ptr origin) noexcept {
        try {
            std::size_t const nparts = slicing_->nparts;
            for (op_arg const& a : ex_.args()) {
                if (!a.dat.valid() || a.acc == op_access::OP_READ) {
                    continue;
                }
                slice_footprint const& fp =
                    a.is_direct() ? slicing_->direct
                                  : *slicing_->find(a.map.id(), a.idx);
                auto const dp = a.dat.set().partition(nparts);
                for (std::uint32_t q : fp.of(s)) {
                    auto info = std::make_shared<poison_info>();
                    info->loop = name_;
                    info->dat = a.dat.name();
                    info->partition = s % nparts;
                    info->color = s / nparts;
                    info->origin = origin;
                    a.dat.internal().dep.add_poison(dp->begin(q), dp->end(q),
                                                    std::move(info));
                }
            }
        } catch (...) {
        }
    }

private:
    [[nodiscard]] static std::int64_t now_ns() noexcept {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    template <typename K, std::size_t M>
    friend class group_pool;

    op2::detail::loop_executor<Kernel, N> ex_;
    op_plan const* plan_ = nullptr;
    plan_slicing const* slicing_ = nullptr;
    std::atomic<std::size_t> slices_left_{0};
    std::atomic<std::int64_t> start_ns_{-1};
    // Issuing context, captured at construction/reset and dropped by
    // release_handles: holds the combine lock alive for the sub-nodes'
    // lifetime even if the owning job retires while the loop drains.
    std::shared_ptr<runtime_context> ctx_;
    char const* name_;
    std::atomic<std::size_t> refs_{0};
    loop_group* pool_next_ = nullptr;  // free-list link while parked
};

/// Cross-issue pool of retired loop groups, one pool per (kernel type,
/// arity) template instantiation — i.e. per issue site, which is exactly
/// the population whose groups are interchangeable. Mirrors the plan
/// cache's shard discipline: a thread-local one-group slot answers the
/// common issue/retire cadence with no locking or atomics at all,
/// backed by spinlocked sharded free lists for the cross-thread case
/// (groups retire on whichever worker completes the loop's last node,
/// but are re-acquired on the issuing thread). Parked groups hold no dat
/// handles (released at join completion) and stay reachable from the
/// static shard heads for the process lifetime, so the pool leaks
/// nothing.
template <typename Kernel, std::size_t N>
class group_pool {
public:
    /// A parked group, or nullptr. Thread-local slot first, then the
    /// shards starting at this thread's own.
    [[nodiscard]] static loop_group<Kernel, N>* take() noexcept {
        tls_cache& c = tls();
        if (c.g != nullptr) {
            return std::exchange(c.g, nullptr);
        }
        std::size_t const base = thread_shard();
        for (std::size_t i = 0; i < kShards; ++i) {
            shard& s = shards_[(base + i) % kShards];
            std::lock_guard<hpxlite::util::spinlock> lk(s.mtx);
            if (s.head != nullptr) {
                auto* g = s.head;
                s.head = g->pool_next_;
                g->pool_next_ = nullptr;
                return g;
            }
        }
        return nullptr;
    }

    static void put(loop_group<Kernel, N>* g) noexcept {
        tls_cache& c = tls();
        if (c.g == nullptr) {
            c.g = g;
            return;
        }
        push_shared(g);
    }

private:
    struct shard {
        hpxlite::util::spinlock mtx;
        loop_group<Kernel, N>* head = nullptr;
    };
    /// Thread-local one-group cache; re-parked into the shared shards
    /// at thread exit so nothing is stranded on short-lived threads.
    struct tls_cache {
        loop_group<Kernel, N>* g = nullptr;
        ~tls_cache() {
            if (g != nullptr) {
                push_shared(g);
            }
        }
    };
    static constexpr std::size_t kShards = 8;

    static void push_shared(loop_group<Kernel, N>* g) noexcept {
        shard& s = shards_[thread_shard()];
        std::lock_guard<hpxlite::util::spinlock> lk(s.mtx);
        g->pool_next_ = s.head;
        s.head = g;
    }
    [[nodiscard]] static std::size_t thread_shard() noexcept {
        static std::atomic<std::size_t> next{0};
        thread_local std::size_t const slot =
            next.fetch_add(1, std::memory_order_relaxed) % kShards;
        return slot;
    }
    [[nodiscard]] static tls_cache& tls() noexcept {
        thread_local tls_cache c;
        return c;
    }

    inline static shard shards_[kShards]{};
};

template <typename Kernel, std::size_t N>
void pool_put(loop_group<Kernel, N>* g) noexcept {
    group_pool<Kernel, N>::put(g);
}

/// Intrusive smart reference to a loop_group. Replaces shared_ptr so
/// group ownership costs one embedded counter instead of a
/// control-block allocation per issue (and so the terminal release can
/// recycle into group_pool instead of deleting).
template <typename Kernel, std::size_t N>
class group_ref {
public:
    group_ref() noexcept = default;
    explicit group_ref(loop_group<Kernel, N>* g) noexcept : g_(g) {
        if (g_ != nullptr) {
            g_->add_ref();
        }
    }
    group_ref(group_ref const& o) noexcept : g_(o.g_) {
        if (g_ != nullptr) {
            g_->add_ref();
        }
    }
    group_ref(group_ref&& o) noexcept
      : g_(std::exchange(o.g_, nullptr)) {}
    group_ref& operator=(group_ref o) noexcept {
        std::swap(g_, o.g_);
        return *this;
    }
    ~group_ref() { reset(); }

    void reset() noexcept {
        if (g_ != nullptr) {
            std::exchange(g_, nullptr)->release();
        }
    }
    [[nodiscard]] loop_group<Kernel, N>* operator->() const noexcept {
        return g_;
    }
    explicit operator bool() const noexcept { return g_ != nullptr; }

private:
    loop_group<Kernel, N>* g_ = nullptr;
};

/// One (colour, slice) sub-node of a dataflow loop: the unit of both
/// scheduling and dependency tracking. Its blocks run inline — the
/// sub-node *is* the parallelism grain, one per pool worker per colour.
template <typename Kernel, std::size_t N>
class slice_node final : public dataflow_node {
public:
    /// `slice` indexes the group's slicing (colour * nparts + k).
    slice_node(group_ref<Kernel, N> grp, std::size_t slice) noexcept
      : grp_(std::move(grp)), slice_(slice) {}

private:
    void run_body() override {
        grp_->mark_start();
        // Deterministic injection point: an armed kernel=NAME@K.C site
        // throws here, as if this (slice, colour) kernel had failed.
        fault::on_kernel(grp_->name(), site_partition(), site_color());
        grp_->run_slice(slice_);
    }

    void on_complete() noexcept override {
        if (error()) {
            // Own failure, inherited failure, or a shutdown discard:
            // either way the slice's writes never (fully) happened, so
            // its target spans are stale — quarantine them.
            grp_->poison_slice(slice_, error());
        }
        grp_.reset();
    }

    group_ref<Kernel, N> grp_;
    std::size_t slice_;
};

/// The loop's completion node: depends on every sub-node and is what
/// the returned loop_handle waits on; it also owns the timing record
/// and the final release of the group's dat handles. It runs inline on
/// the thread that finishes the last sub-node (set_run_inline), so the
/// recorded span ends there and the group is released at once.
template <typename Kernel, std::size_t N>
class join_node final : public dataflow_node {
public:
    explicit join_node(group_ref<Kernel, N> grp) noexcept
      : grp_(std::move(grp)) {}

private:
    void run_body() override {
        op_timing_record(grp_->name(), to_string(backend_kind::hpx_dataflow),
                         grp_->wall_seconds());
    }

    void on_complete() noexcept override {
        grp_->release_handles();
        grp_.reset();
    }

    group_ref<Kernel, N> grp_;
};

/// Monotone nonzero id handed to each loop issue: the dependency layer
/// uses it to recognise sub-nodes of one loop (the same-colour
/// non-conflict exemption applies only within a loop). Shared across
/// every kernel instantiation, so ids never repeat between loops.
inline std::atomic<std::uint64_t> g_loop_tag_seq{1};

/// The dataflow issue path: the loop runs the same cached plan as the
/// staged backend, with each colour's blocks cut into `nparts` slices
/// (plan_slices; run_loop passes the pool's worker count), and becomes
/// one sub-node per non-empty (colour, slice) plus a join node — the
/// per-colour block loop of the paper's generated code (Fig. 4) with
/// every colour spread over all workers. Each sub-node edges on exactly
/// the dat partitions its footprints name (direct args: the iteration
/// partitions its blocks fall in; indirect args: the target partitions
/// its map rows reach), so independent parts of dependent loops, and
/// independent colours of different loops, overlap in the epoch graph.
///
/// Sub-nodes are issued colour-major. Conflicting sub-nodes always share
/// at least one dat-partition record (a conflict is a shared target
/// element, and the element's partition record orders its writers by
/// issue order), so program order is preserved wherever it matters, and
/// within the loop every edge runs from a lower colour to a higher one:
/// the colour order the staged sweep uses, so an INC target sees its
/// increments in the same order and the results are bitwise-identical.
///
/// Two per-loop refinements ride on that structure:
///  * placement: slice k of every colour carries the worker hint k, so a
///    region's working set keeps landing on the same worker across
///    colours and across the loops of a chain (the join carries no hint:
///    it runs inline on the thread finishing the last sub-node);
///  * the same-colour non-conflict exemption: same-coloured sub-nodes of
///    THIS loop provably never mutate the same target element, so they
///    skip the conservative WAW record edges between each other and all
///    run at once.
template <typename Kernel, std::size_t N>
loop_handle issue_slices(loop_options const& opts, char const* name,
                         op_set set, std::array<op_arg, N> args,
                         Kernel kernel, hpxlite::threads::thread_pool& pool,
                         std::size_t nparts) {
    // Acquire the group from the cross-issue pool when possible: a
    // steady-state chain then re-issues each loop with zero executor
    // construction and zero scratch reallocation (the reduction
    // buffers retained in the recycled executor are re-seeded per run,
    // never trusted).
    loop_group<Kernel, N>* graw = group_pool<Kernel, N>::take();
    if (graw != nullptr) {
        graw->reset(set, args, kernel, opts, name);
    } else {
        graw = new loop_group<Kernel, N>(set, args, kernel, opts, name);
    }
    group_ref<Kernel, N> grp(graw);
    auto const& ex = grp->executor();

    // Resolve the plan and its slicing up front, so nothing below the
    // first sub-node issue can throw.
    op_plan const* plan = nullptr;
    plan_slicing const* sl = nullptr;
    try {
        ex.validate(name);
        plan = &plan_get(set, ex.args(), plan_desc{opts.part_size});
        sl = &plan_slices(*plan, set, ex.args(), nparts);
    } catch (...) {
        // The group may park back in the pool on unwind; drop its dat
        // handles first so a parked group never extends dat lifetimes.
        grp->release_handles();
        throw;
    }
    std::size_t live = 0;
    for (std::size_t s = 0; s < sl->nslices(); ++s) {
        live += plan->blocks_of_slice(*sl, s).empty() ? 0 : 1;
    }
    grp->bind(*plan, *sl, live);

    // Distinct dats of the loop, each with its record table at this
    // granularity: one records() lookup per dat, which also counts the
    // dat's writer loop.
    struct dat_entry {
        dep_state* state = nullptr;
        bool write = false;
        std::shared_ptr<dep_record[]> recs;
    };
    std::array<dat_entry, N == 0 ? 1 : N> dats;
    std::size_t ndats = 0;
    for (op_arg const& a : ex.args()) {
        if (!a.dat.valid()) {
            continue;
        }
        dep_state& st = a.dat.internal().dep;
        std::size_t i = 0;
        while (i < ndats && dats[i].state != &st) {
            ++i;
        }
        if (i == ndats) {
            dats[i].state = &st;
            ++ndats;
        }
        dats[i].write = dats[i].write || a.acc != op_access::OP_READ;
    }
    for (std::size_t i = 0; i < ndats; ++i) {
        dats[i].recs = dats[i].state->records(nparts, dats[i].write);
    }
    // Per argument: its records (the dat's table), whether it writes,
    // and which slice footprint names the partitions it reaches.
    struct arg_entry {
        dep_record* recs = nullptr;  // null: a global, no records
        bool write = false;
        slice_footprint const* fp = nullptr;
    };
    std::array<arg_entry, N == 0 ? 1 : N> arg_recs{};
    {
        std::size_t j = 0;
        for (op_arg const& a : ex.args()) {
            arg_entry& e = arg_recs[j++];
            if (!a.dat.valid()) {
                continue;
            }
            dep_state& st = a.dat.internal().dep;
            std::size_t i = 0;
            while (dats[i].state != &st) {
                ++i;
            }
            e.recs = dats[i].recs.get();
            e.write = a.acc != op_access::OP_READ;
            e.fp = a.is_direct() ? &sl->direct : sl->find(a.map.id(), a.idx);
        }
    }

    auto* join = new join_node<Kernel, N>(grp);
    node_ref jref(join, /*adopt=*/true);
    join->bind_pool(pool);
    join->set_run_inline();
    join->set_site(name, dataflow_node::kJoin, 0);

    // Quarantine gate: a loop consuming a poisoned dat is issued
    // *born-failed* — every sub-node carries the diagnostic, skips its
    // body, and the join reports it at handle.get(), the same point as
    // every other asynchronous failure. (The sub-nodes still enter the
    // graph, so dependents inherit the error and the written spans are
    // quarantined in turn.) The join carries it too: a loop over an
    // empty set has no sub-node to inherit it from.
    std::exception_ptr const qerr = check_quarantine(ex.args(), name);
    if (qerr) {
        join->seed_error(qerr);
    }

    std::uint64_t const loop_tag =
        g_loop_tag_seq.fetch_add(1, std::memory_order_relaxed);

    // Reused across issues (and across the slice loop below): request
    // counts are small and issue() consumes the span synchronously, so
    // one thread-local buffer per thread suffices and the per-issue
    // allocation disappears.
    static thread_local std::vector<dep_request> reqs;
    for (std::size_t s = 0; s < sl->nslices(); ++s) {
        if (plan->blocks_of_slice(*sl, s).empty()) {
            continue;  // a colour with fewer blocks than slices
        }
        std::size_t const color = s / nparts;
        std::size_t const k = s % nparts;
        auto* sub = new slice_node<Kernel, N>(grp, s);
        node_ref sref(sub, /*adopt=*/true);
        sub->set_site(name, k, color);
        if (qerr) {
            sub->seed_error(qerr);
        }
        join->depend_on(*sub);
        sub->set_worker_hint(k);

        reqs.clear();
        for (std::size_t j = 0; j < N; ++j) {
            arg_entry const& e = arg_recs[j];
            if (e.recs == nullptr) {
                continue;
            }
            for (std::uint32_t q : e.fp->of(s)) {
                reqs.push_back({&e.recs[q], e.write, loop_tag,
                                static_cast<std::uint32_t>(color)});
            }
        }
        issue(*sub, std::span<dep_request>{reqs}, pool);
    }
    join->schedule();
    return loop_handle(std::move(jref));
}

}  // namespace detail

/// Issue `kernel` over `set` on the backend selected by opts.backend.
///
///  * seq: plain element loop on the calling thread; returns ready.
///  * staged: plan-driven fork-join sweep (colour by colour, implicit
///    barrier at the end — the stock-OP2 OpenMP shape); returns ready.
///  * hpx_dataflow: the loop is *issued*, not executed — it enters the
///    epoch graph as one sub-node per (colour, slice) of the staged
///    backend's plan (one slice per worker of the global pool, slice k
///    hinted to worker k) and runs as its per-partition dependencies
///    resolve; independent parts of dependent loops overlap, and there
///    is no global barrier. On a one-worker pool each colour is one
///    slice: the colours run one sub-node at a time. Reduction results
///    (op_arg_gbl) are valid only once the returned handle is ready.
template <typename Kernel, typename... Args>
loop_handle run_loop(loop_options const& opts, char const* name, op_set set,
                     Kernel kernel, Args... args) {
    constexpr std::size_t n = sizeof...(Args);

    current_context()->loops_issued.fetch_add(1, std::memory_order_relaxed);

    switch (opts.backend) {
        case backend_kind::seq: {
            op2::detail::loop_executor<Kernel, n> ex(
                std::move(set), std::array<op_arg, n>{std::move(args)...},
                std::move(kernel), opts);
            ex.validate(name);
            // Synchronous backends fail fast at the call site: reading
            // a poisoned dat throws the quarantine diagnostic here.
            if (auto qerr = detail::check_quarantine(ex.args(), name)) {
                std::rethrow_exception(qerr);
            }
            hpxlite::util::stopwatch sw;
            try {
                fault::on_kernel(name, 0, 0);
                ex.run_sequential();
            } catch (...) {
                detail::poison_sync_failure(ex.args(), name);
                throw;
            }
            op_timing_record(name, to_string(backend_kind::seq),
                             sw.elapsed_s());
            return {};
        }

        case backend_kind::staged: {
            op2::detail::loop_executor<Kernel, n> ex(
                std::move(set), std::array<op_arg, n>{std::move(args)...},
                std::move(kernel), opts);
            ex.validate(name);
            if (auto qerr = detail::check_quarantine(ex.args(), name)) {
                std::rethrow_exception(qerr);
            }
            op_plan const& plan =
                plan_get(ex.set(), ex.args(), plan_desc{opts.part_size});
            try {
                fault::on_kernel(name, 0, 0);
                detail::staged_sweep(ex, plan, name);
            } catch (...) {
                detail::poison_sync_failure(ex.args(), name);
                throw;
            }
            return {};
        }

        case backend_kind::hpx_dataflow: {
            // One slice per worker per colour: the one dataflow
            // granularity. Two per worker is an unmeasured lead
            // (ROADMAP.md, item 2): measure it before changing this.
            auto& pool = hpxlite::get_pool();
            return detail::issue_slices<Kernel, n>(
                opts, name, std::move(set),
                std::array<op_arg, n>{std::move(args)...}, std::move(kernel),
                pool, pool.size());
        }
    }
    return {};
}

}  // namespace op2::exec
