#pragma once

// The unified executor backend layer: one templated entry point
// (run_loop) dispatching a loop onto the backend selected by
// loop_options::backend. All three backends share the plan (block
// colouring + staged gather tables) and the staged loop_executor — the
// backends differ only in *when* the sweep runs (inline, fork-join, or
// asynchronously out of the epoch dataflow graph) and in how blocks are
// distributed over workers.

#include <algorithm>
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

// Guard for partitioned reduction scratch seeding and combining: the
// issuing context's combine lock (runtime_context::combine_mtx),
// captured into each loop group at issue. One lock across all loops
// *of one program*, not one per loop: two partitioned loops reducing
// into the same user variable can have their sub-nodes in flight
// concurrently (gbl args create no graph edges), and the variable's
// read-modify-write must not tear between them. Order under the lock
// is irrelevant to the result: OP_INC partials seed from zero and add,
// OP_MIN/OP_MAX combines are monotone folds, so any interleaving of
// seeds and combines produces the sequential value. Combines are rare
// (one per partition per loop) and short, so one spinlock per context
// costs nothing — and independent service jobs (which never share
// reduction variables) never contend on it.

// --- partition-granular quarantine (issue-side) ---------------------------

/// One dat element span a failing sub-node may have half-written:
/// registered at issue time, turned into a poison span if the node
/// completes with an error. Points at the dat's impl (alive as long as
/// the group/executor holds the arg) so the failure path can reach both
/// the dep_state and the dat's name without per-issue string copies.
struct quarantine_target {
    op2::detail::dat_impl const* dat = nullptr;
    std::size_t lo = 0;
    std::size_t hi = 0;
};

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
    loop_options const& opts = ex.options();
    auto policy = hpxlite::execution::par.with(opts.chunk);
    if (opts.pool != nullptr) {
        policy = policy.on(*opts.pool);
    }
    hpxlite::util::stopwatch sw;
    ex.execute(plan, [&](std::span<std::size_t const> blocks) {
        hpxlite::parallel::for_loop(
            policy, std::size_t{0}, blocks.size(),
            [&](std::size_t k) { ex.run_block(plan, blocks[k]); });
    });
    op_timing_record(name, to_string(backend_kind::staged), sw.elapsed_s());
}

template <typename Kernel, std::size_t N>
class partitioned_loop;

/// Park a retired group in the cross-issue pool (defined with
/// group_pool below; forward-declared so partitioned_loop::release can
/// name it).
template <typename Kernel, std::size_t N>
void pool_put(partitioned_loop<Kernel, N>* g) noexcept;

/// Shared state of one partition-granular dataflow loop: one executor
/// (and one cached partition plan) per partition, each with its own
/// staged-table bindings and reduction scratch. Sub-nodes and the join
/// node share it through group_ref (an embedded intrusive count — no
/// shared_ptr control-block allocation per issue) and drop their
/// references in on_complete(), which is what breaks the dat -> record
/// -> node -> group -> dat cycle once the loop has run. The last drop
/// parks the group in the per-instantiation cross-issue pool, so a
/// steady-state chain re-issues a loop without reconstructing its
/// executors or reallocating their reduction scratch.
template <typename Kernel, std::size_t N>
class partitioned_loop {
public:
    partitioned_loop(op_set const& set, std::array<op_arg, N> const& args,
                     Kernel const& kernel, loop_options const& opts,
                     char const* name, std::size_t nparts)
      : ctx_(current_context()), name_(name) {
        execs_.reserve(nparts);
        plans_.reserve(nparts);
        for (std::size_t p = 0; p < nparts; ++p) {
            execs_.emplace_back(set, args, kernel, opts);
        }
        colors_left_ =
            std::make_unique<std::atomic<std::size_t>[]>(nparts);
        color_cap_ = nparts;
        qtargets_.resize(nparts);
    }

    /// Re-arm a pool-recycled group for a new issue of the same call
    /// site. Grown capacity is retained everywhere it matters: the
    /// executors keep their reduction scratch blocks (contents
    /// are re-seeded per run by prepare_scratch), the per-partition
    /// quarantine vectors keep their buffers, and the colour-countdown
    /// array only reallocates when the partition count grew.
    void reset(op_set const& set, std::array<op_arg, N> const& args,
               Kernel const& kernel, loop_options const& opts,
               char const* name, std::size_t nparts) {
        // Pooled groups cross issue sites, and under the service layer
        // cross jobs: re-capture the issuing context (combine lock,
        // kept alive for the nodes' lifetime).
        ctx_ = current_context();
        name_ = name;
        start_ns_.store(-1, std::memory_order_relaxed);
        plans_.clear();
        plans_.reserve(nparts);
        std::size_t const keep = std::min(execs_.size(), nparts);
        for (std::size_t p = 0; p < keep; ++p) {
            execs_[p].rebind(set, args, kernel, opts);
        }
        while (execs_.size() > nparts) {
            execs_.pop_back();
        }
        while (execs_.size() < nparts) {
            execs_.emplace_back(set, args, kernel, opts);
        }
        if (color_cap_ < nparts) {
            colors_left_ =
                std::make_unique<std::atomic<std::size_t>[]>(nparts);
            color_cap_ = nparts;
        }
        for (auto& q : qtargets_) {
            q.clear();
        }
        qtargets_.resize(nparts);
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

    [[nodiscard]] std::size_t nparts() const noexcept {
        return execs_.size();
    }
    [[nodiscard]] op2::detail::loop_executor<Kernel, N>& executor(
        std::size_t p) {
        return execs_[p];
    }
    [[nodiscard]] op_plan const& plan(std::size_t p) const {
        return *plans_[p];
    }
    void bind_plan(op_plan const& pl) { plans_.push_back(&pl); }
    [[nodiscard]] char const* name() const noexcept { return name_; }

    /// First sub-node to run stamps the loop's execution start; the
    /// join reads the span. This keeps the hpx_dataflow timing row a
    /// *wall* time (first block to last combine), comparable with the
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

    /// Arm partition p's colour countdown (issue time).
    void init_colors(std::size_t p, std::size_t ncolors) noexcept {
        colors_left_[p].store(ncolors, std::memory_order_relaxed);
    }

    /// Count one finished colour of partition p; true for the last.
    [[nodiscard]] bool finish_color(std::size_t p) noexcept {
        return colors_left_[p].fetch_sub(1, std::memory_order_acq_rel) == 1;
    }

    /// Seed partition p's reduction scratch (the partition's colour-0
    /// sub-node). Under the context's combine lock: MIN/MAX partials
    /// *read* the user's variable, which another partition's — or
    /// another loop's — combine may be writing at that moment.
    void prepare_partition(std::size_t p) {
        std::lock_guard<hpxlite::util::spinlock> lk(ctx_->combine_mtx);
        execs_[p].prepare_scratch();
    }

    /// Fold partition p's reduction partials into the user's globals.
    /// Runs on the partition's last sub-node — with the sub-nodes, not
    /// after them, so a fence that drains the dat records also covers
    /// the reductions. The context's lock serialises the
    /// read-modify-write of the user's variable across partitions *and*
    /// across loops of the issuing program (see the combine-lock note
    /// above for why ordering doesn't matter).
    void combine_partition(std::size_t p) {
        std::lock_guard<hpxlite::util::spinlock> lk(ctx_->combine_mtx);
        execs_[p].combine();
    }

    void release_handles() noexcept {
        for (auto& ex : execs_) {
            ex.release_handles();
        }
    }

    /// Register a dat element span partition p's failure would taint.
    /// Issue-side only, and all of partition p's targets land before
    /// p's first sub-node is issued — the only writer racing a
    /// potential reader (poison_partition) is pushing to a *different*
    /// partition's inner vector of the pre-sized outer one.
    void add_quarantine_target(std::size_t p, quarantine_target t) {
        qtargets_[p].push_back(t);
    }

    /// Quarantine every span partition p could have half-written,
    /// attributed to (this loop, p, `color`) with `origin` chained into
    /// the diagnostic. Called from a failed sub-node's on_complete
    /// (noexcept there, so best-effort: an allocation failure leaves
    /// plain error propagation).
    void poison_partition(std::size_t p, std::size_t color,
                          std::exception_ptr origin) noexcept {
        try {
            for (auto const& t : qtargets_[p]) {
                auto info = std::make_shared<poison_info>();
                info->loop = name_;
                info->dat = t.dat->name;
                info->partition = p;
                info->color = color;
                info->origin = origin;
                t.dat->dep.add_poison(t.lo, t.hi, std::move(info));
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

    std::vector<op2::detail::loop_executor<Kernel, N>> execs_;
    std::vector<op_plan const*> plans_;
    std::unique_ptr<std::atomic<std::size_t>[]> colors_left_;
    std::size_t color_cap_ = 0;
    std::vector<std::vector<quarantine_target>> qtargets_;  // [partition]
    std::atomic<std::int64_t> start_ns_{-1};
    // Issuing context, captured at construction/reset: holds the
    // combine lock alive for the sub-nodes' lifetime even if the
    // owning job retires while the loop drains.
    std::shared_ptr<runtime_context> ctx_;
    char const* name_;
    std::atomic<std::size_t> refs_{0};
    partitioned_loop* pool_next_ = nullptr;  // free-list link while parked
};

/// Cross-issue pool of retired partitioned-loop groups, one pool per
/// (kernel type, arity) template instantiation — i.e. per issue site,
/// which is exactly the population whose groups are interchangeable.
/// Mirrors the plan cache's shard discipline: a thread-local one-group
/// slot answers the common issue/retire cadence with no locking or
/// atomics at all, backed by spinlocked sharded free lists for the
/// cross-thread case (groups retire on whichever worker completes the
/// loop's last node, but are re-acquired on the issuing thread).
/// Parked groups hold no dat handles (released at join completion) and
/// stay reachable from the static shard heads for the process
/// lifetime, so the pool leaks nothing.
template <typename Kernel, std::size_t N>
class group_pool {
public:
    /// A parked group, or nullptr. Thread-local slot first, then the
    /// shards starting at this thread's own.
    [[nodiscard]] static partitioned_loop<Kernel, N>* take() noexcept {
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

    static void put(partitioned_loop<Kernel, N>* g) noexcept {
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
        partitioned_loop<Kernel, N>* head = nullptr;
    };
    /// Thread-local one-group cache; re-parked into the shared shards
    /// at thread exit so nothing is stranded on short-lived threads.
    struct tls_cache {
        partitioned_loop<Kernel, N>* g = nullptr;
        ~tls_cache() {
            if (g != nullptr) {
                push_shared(g);
            }
        }
    };
    static constexpr std::size_t kShards = 8;

    static void push_shared(partitioned_loop<Kernel, N>* g) noexcept {
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
void pool_put(partitioned_loop<Kernel, N>* g) noexcept {
    group_pool<Kernel, N>::put(g);
}

/// Intrusive smart reference to a partitioned_loop group. Replaces
/// shared_ptr so group ownership costs one embedded counter instead of
/// a control-block allocation per issue (and so the terminal release
/// can recycle into group_pool instead of deleting).
template <typename Kernel, std::size_t N>
class group_ref {
public:
    group_ref() noexcept = default;
    explicit group_ref(partitioned_loop<Kernel, N>* g) noexcept : g_(g) {
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
    [[nodiscard]] partitioned_loop<Kernel, N>* operator->() const noexcept {
        return g_;
    }
    explicit operator bool() const noexcept { return g_ != nullptr; }

private:
    partitioned_loop<Kernel, N>* g_ = nullptr;
};

/// One (partition, colour) sub-node of a partitioned loop: the unit of
/// both scheduling and dependency tracking. Its blocks run inline — the
/// sub-node *is* the parallelism grain, one per worker by default.
template <typename Kernel, std::size_t N>
class part_node final : public dataflow_node {
public:
    part_node(group_ref<Kernel, N> grp, std::size_t partition,
              std::size_t color, bool first) noexcept
      : grp_(std::move(grp)), partition_(partition), color_(color),
        first_(first) {}

private:
    void run_body() override {
        grp_->mark_start();
        // Deterministic injection point: an armed kernel=NAME@P.C site
        // throws here, as if this (partition, colour) kernel had failed.
        fault::on_kernel(grp_->name(), partition_, color_);
        auto& ex = grp_->executor(partition_);
        op_plan const& plan = grp_->plan(partition_);
        if (first_) {
            // The partition's first (lowest non-empty colour) sub-node
            // runs first — the issue path chains a partition's sub-nodes
            // in colour order — so it owns the run-time scratch
            // initialisation.
            grp_->prepare_partition(partition_);
        }
        ex.run_color(plan, color_);
        if (grp_->finish_color(partition_)) {
            grp_->combine_partition(partition_);
        }
    }

    void on_complete() noexcept override {
        if (error()) {
            // Own failure, inherited failure, or a shutdown discard:
            // either way the partition's writes never (fully) happened,
            // so its target spans are stale — quarantine them.
            grp_->poison_partition(partition_, color_, error());
        }
        grp_.reset();
    }

    group_ref<Kernel, N> grp_;
    std::size_t partition_;
    std::size_t color_;
    bool first_;
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

/// The dataflow issue path: the loop becomes one sub-node per
/// (partition, colour) plus a join node. Each sub-node edges on exactly
/// the dat partitions it can reach — the iteration partition itself for
/// direct args, the plan's map-derived footprint for indirect ones — so
/// independent partitions of dependent loops, and independent colours
/// of different loops, overlap in the epoch graph. Sub-nodes are issued
/// in (partition, colour) order; conflicting sub-nodes always share at
/// least one dat-partition record (a conflict is a shared target
/// element, and the element's partition record orders its writers by
/// issue order), so program order is preserved wherever it matters.
/// nparts = 1 is the same shape with one partition: its live colours
/// run one sub-node at a time, then the join.
///
/// Two per-loop refinements ride on that structure:
///  * placement: partition p's sub-nodes carry the worker hint
///    p % pool_size, so a partition's working set keeps landing on the
///    same worker across the loops of a chain (the join carries no hint:
///    it runs inline on the thread finishing the last sub-node);
///  * the same-colour non-conflict exemption: partition plans are
///    coloured globally, so same-coloured sub-nodes of THIS loop
///    provably never mutate the same target element and skip the
///    conservative WAW record edges between each other —
///    boundary-straddling INC partitions of a single loop overlap. A
///    partition's own sub-nodes are still chained in colour order
///    (deterministic scratch prepare, single-threaded per-partition
///    executor), so the won concurrency is across partitions.
template <typename Kernel, std::size_t N>
loop_handle issue_partitioned(loop_options const& opts, char const* name,
                              op_set set, std::array<op_arg, N> args,
                              Kernel kernel,
                              hpxlite::threads::thread_pool& pool,
                              std::size_t nparts) {
    // Acquire the group from the cross-issue pool when possible: a
    // steady-state chain then re-issues each loop with zero executor
    // construction and zero scratch reallocation (the reduction
    // buffers retained in the recycled executors are re-seeded per run,
    // never trusted).
    partitioned_loop<Kernel, N>* graw = group_pool<Kernel, N>::take();
    if (graw != nullptr) {
        graw->reset(set, args, kernel, opts, name, nparts);
    } else {
        graw = new partitioned_loop<Kernel, N>(set, args, kernel, opts,
                                               name, nparts);
    }
    group_ref<Kernel, N> grp(graw);
    try {
        grp->executor(0).validate(name);
    } catch (...) {
        // The group may park back in the pool on unwind; drop its dat
        // handles first so a parked group never extends dat lifetimes.
        grp->release_handles();
        throw;
    }

    // Resolve every partition plan (and bind the executors) up front, so
    // nothing below the first sub-node issue can throw. The colour
    // countdown counts *live* (non-empty) colours only: global colouring
    // can leave a partition plan with sparse colour classes, and empty
    // ones get no sub-node.
    for (std::size_t p = 0; p < nparts; ++p) {
        op_plan const& plan = plan_get(set, grp->executor(0).args(),
                                       plan_desc{opts.part_size, nparts, p});
        grp->bind_plan(plan);
        grp->executor(p).setup(plan);
        std::size_t live = 0;
        for (std::size_t c = 0; c < plan.ncolors; ++c) {
            if (!plan.blocks_of_color(c).empty()) {
                ++live;
            }
        }
        grp->init_colors(p, live);
    }

    // Distinct dats of the loop, with their record tables pinned at
    // this granularity (until every sub-node is wired) and the
    // dat-level epoch bumped once per writer. Pins are taken in
    // canonical (address) order so concurrent issuers at mixed
    // granularities never hold-and-wait on each other's pins.
    struct dat_entry {
        dep_state* state = nullptr;
        bool write = false;
        issue_pin pin;
    };
    std::array<dat_entry, N == 0 ? 1 : N> dats;
    std::array<std::size_t, N == 0 ? 1 : N> arg_dat{};  // arg -> dats index
    std::size_t ndats = 0;
    {
        std::size_t j = 0;
        for (op_arg const& a : grp->executor(0).args()) {
            if (!a.dat.valid()) {
                arg_dat[j++] = static_cast<std::size_t>(-1);
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
            ++j;
        }
    }
    std::sort(dats.begin(), dats.begin() + static_cast<std::ptrdiff_t>(ndats),
              [](dat_entry const& x, dat_entry const& y) {
                  return x.state < y.state;
              });
    for (std::size_t i = 0; i < ndats; ++i) {
        dats[i].pin = issue_pin(*dats[i].state, nparts);
        if (dats[i].write) {
            dats[i].state->bump_epoch();
        }
    }
    {
        // Re-derive the arg -> entry mapping against the sorted order.
        std::size_t j = 0;
        for (op_arg const& a : grp->executor(0).args()) {
            if (!a.dat.valid()) {
                arg_dat[j++] = static_cast<std::size_t>(-1);
                continue;
            }
            dep_state& st = a.dat.internal().dep;
            std::size_t i = 0;
            while (dats[i].state != &st) {
                ++i;
            }
            arg_dat[j++] = i;
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
    // quarantined in turn.)
    std::exception_ptr const qerr =
        check_quarantine(grp->executor(0).args(), name);
    auto const iter_part = set.partition(nparts);

    std::uint64_t const loop_tag =
        g_loop_tag_seq.fetch_add(1, std::memory_order_relaxed);

    // Reused across issues (and across the (partition, colour) loop
    // below): request counts are small and issue() consumes the span
    // synchronously, so one thread-local buffer per thread suffices and
    // the per-issue allocation disappears.
    static thread_local std::vector<dep_request> reqs;
    for (std::size_t p = 0; p < nparts; ++p) {
        op_plan const& plan = grp->plan(p);

        // Partition p's quarantine targets: the dat element spans a
        // failure of any of p's sub-nodes may have half-written —
        // direct args taint the iteration partition's own span,
        // indirect ones the spans of the footprint's dat partitions.
        // Registered before p's first sub-node is issued (a sub-node
        // can fail the instant it is wired).
        {
            std::size_t j = 0;
            for (op_arg const& a : grp->executor(0).args()) {
                std::size_t const i = arg_dat[j++];
                if (i == static_cast<std::size_t>(-1) ||
                    a.acc == op_access::OP_READ) {
                    continue;
                }
                auto const* impl = &a.dat.internal();
                if (a.is_direct()) {
                    grp->add_quarantine_target(
                        p, {impl, iter_part->begin(p), iter_part->end(p)});
                } else if (plan_footprint const* fp =
                               plan.find_footprint(a.map.id(), a.idx)) {
                    auto const dp = a.dat.set().partition(nparts);
                    for (std::uint32_t q : fp->parts) {
                        grp->add_quarantine_target(
                            p, {impl, dp->begin(q), dp->end(q)});
                    }
                } else {
                    grp->add_quarantine_target(
                        p, {impl, 0, a.dat.set().size()});
                }
            }
        }

        node_ref chain_prev;
        for (std::size_t c = 0; c < plan.ncolors; ++c) {
            if (plan.blocks_of_color(c).empty()) {
                continue;  // sparse global colour class: nothing to run
            }
            auto* sub =
                new part_node<Kernel, N>(grp, p, c, /*first=*/!chain_prev);
            node_ref sref(sub, /*adopt=*/true);
            sub->set_site(name, p, c);
            if (qerr) {
                sub->seed_error(qerr);
            }
            join->depend_on(*sub);
            sub->set_worker_hint(p % pool.size());
            if (chain_prev) {
                // Chain the partition's own sub-nodes in colour order:
                // global colouring no longer guarantees that a
                // partition's colours conflict pairwise, and the
                // per-partition executor (scratch prepare, per-block
                // reduction partials) expects one sub-node at a time.
                sub->depend_on(*chain_prev);
            }

            reqs.clear();
            // reqs has thread-local storage, so the lambda names it
            // directly (non-automatic variables cannot be captured).
            auto add = [loop_tag, c](dep_record* rec, bool write) {
                for (auto& r : reqs) {
                    if (r.rec == rec) {
                        r.write = r.write || write;
                        return;
                    }
                }
                reqs.push_back({rec, write, loop_tag,
                                static_cast<std::uint32_t>(c)});
            };
            std::size_t j = 0;
            for (op_arg const& a : grp->executor(0).args()) {
                std::size_t const i = arg_dat[j++];
                if (i == static_cast<std::size_t>(-1)) {
                    continue;
                }
                bool const write = a.acc != op_access::OP_READ;
                if (a.is_direct()) {
                    add(&dats[i].pin.records()[p], write);
                } else if (plan_footprint const* fp =
                               plan.find_footprint(a.map.id(), a.idx)) {
                    for (std::uint32_t q : fp->parts) {
                        add(&dats[i].pin.records()[q], write);
                    }
                } else {
                    // No footprint (one-partition plans carry none):
                    // edge on every partition of the dat.
                    for (std::size_t q = 0; q < nparts; ++q) {
                        add(&dats[i].pin.records()[q], write);
                    }
                }
            }
            issue(*sub, std::span<dep_request const>{reqs.data(),
                                                     reqs.size()},
                  pool);
            chain_prev = std::move(sref);
        }
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
///    epoch graph at partition granularity (loop_options::partitions
///    sub-ranges of the set, one sub-node per (partition, colour), one
///    per pool worker by default) and runs as its per-partition
///    dependencies resolve; independent partitions of dependent loops
///    overlap, and there is no global barrier. partitions = 1 is one
///    partition: its colours run one sub-node at a time. Reduction
///    results (op_arg_gbl) are valid only once the returned handle is
///    ready.
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
            auto& pool =
                opts.pool != nullptr ? *opts.pool : hpxlite::get_pool();
            std::size_t const nparts =
                opts.partitions != 0 ? opts.partitions : pool.size();
            return detail::issue_partitioned<Kernel, n>(
                opts, name, std::move(set),
                std::array<op_arg, n>{std::move(args)...}, std::move(kernel),
                pool, nparts);
        }
    }
    return {};
}

}  // namespace op2::exec
