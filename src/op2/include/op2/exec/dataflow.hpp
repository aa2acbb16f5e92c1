#pragma once

// Epoch-based dependency engine for the hpx_dataflow backend.
//
// The paper's contribution (Section IV) is that OP2 loops scheduled
// through futures/dataflow interleave automatically with no global
// barrier. PR 1's implementation tracked dependencies with one shared
// future chained per dat per loop: every issue allocated a when_all
// vector, a continuation shared-state and a shared_future copy per
// touched dat. This engine replaces all of that with an *intrusive*
// task graph:
//
//  * every dat carries one dep_record — a monotonically increasing
//    last-writer epoch plus the reader set of that epoch — instead of a
//    vector of shared futures;
//  * every issued loop is a set of refcounted dataflow_nodes — one per
//    (colour, slice) plus a join, see backend.hpp — and each node
//    doubles as the pool's intrusive task_node, so wiring a loop into
//    the graph and scheduling it allocates nothing beyond the nodes;
//  * readers of the same epoch run concurrently (they only edge on the
//    epoch's writer); a writer batch-waits on the previous epoch —
//    writer + reader count — through a single atomic pending counter,
//    the way the per-colour sweep batches block completion on a latch,
//    not through per-dependency future waits.
//
// Program order is issue order: records are updated under their own
// spinlock at issue time, exactly like the futures threaded through
// op_par_loop calls in Figures 9-11 of the paper.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <hpxlite/threads/task_node.hpp>
#include <hpxlite/threads/thread_pool.hpp>
#include <hpxlite/util/spinlock.hpp>
#include <op2/context.hpp>

namespace op2::exec {

class dataflow_node;

namespace detail {

/// Parking spot for external (non-pool) threads waiting on node
/// completion — fences, loop_handle::wait from the application thread.
/// Completions only touch the mutex when a waiter is registered (the
/// same sleeper-counted protocol as the pool's submit/wake_one), so the
/// steady-state cost of the hub is one relaxed-ish atomic load per
/// completed loop. Pool workers never park here: they help run tasks.
class completion_hub {
public:
    static completion_hub& get() {
        static completion_hub hub;
        return hub;
    }

    /// Called after a node published done(): wake parked waiters.
    void notify() {
        if (waiters_.load(std::memory_order_seq_cst) > 0) {
            {
                // Empty critical section: a waiter between its predicate
                // check and wait() holds the mutex, so this cannot
                // notify into the gap.
                std::lock_guard<std::mutex> lk(mtx_);
            }
            cv_.notify_all();
        }
    }

    /// Park until `done()` returns true. Spurious wakeups are absorbed
    /// by the predicate; every node completion notifies.
    template <typename Done>
    void wait(Done&& done) {
        std::unique_lock<std::mutex> lk(mtx_);
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        cv_.wait(lk, std::forward<Done>(done));
        waiters_.fetch_sub(1, std::memory_order_relaxed);
    }

    /// Deadline-bounded wait for loop_handle::wait_for. Returns the
    /// final predicate value (false = timed out with work pending).
    template <typename Done>
    bool wait_until(std::chrono::steady_clock::time_point deadline,
                    Done&& done) {
        std::unique_lock<std::mutex> lk(mtx_);
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        bool const ok = cv_.wait_until(lk, deadline,
                                       std::forward<Done>(done));
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        return ok;
    }

private:
    std::mutex mtx_;
    std::condition_variable cv_;
    std::atomic<std::size_t> waiters_{0};
};

}  // namespace detail

/// Intrusive refcounted handle to a dataflow node.
class node_ref {
public:
    node_ref() noexcept = default;
    /// Wrap `n`; bumps the count unless `adopt` transfers an existing
    /// reference (e.g. the creation reference of a new node).
    explicit node_ref(dataflow_node* n, bool adopt = false) noexcept;
    node_ref(node_ref const& o) noexcept;
    node_ref(node_ref&& o) noexcept : n_(o.n_) { o.n_ = nullptr; }
    node_ref& operator=(node_ref o) noexcept {
        std::swap(n_, o.n_);
        return *this;
    }
    ~node_ref();

    [[nodiscard]] dataflow_node* get() const noexcept { return n_; }
    dataflow_node* operator->() const noexcept { return n_; }
    dataflow_node& operator*() const noexcept { return *n_; }
    explicit operator bool() const noexcept { return n_ != nullptr; }
    void reset() noexcept { node_ref{}.swap(*this); }
    void swap(node_ref& o) noexcept { std::swap(n_, o.n_); }

private:
    dataflow_node* n_ = nullptr;
};

/// One issued loop: a node of the dependency DAG and, verbatim, the
/// intrusive task the pool queues once its dependencies resolve.
///
/// Lifecycle: created with one reference (the creator's, usually handed
/// to the returned loop_handle) and a pending count of one (the issue
/// guard, dropped by schedule()). Additional references are held by dat
/// dep_records (bounded: one writer + the current epoch's readers per
/// dat), by successor edges (released as soon as the successor is
/// notified) and by the pool queue while the node waits for a worker.
class dataflow_node : public hpxlite::threads::task_node {
public:
    dataflow_node() { action = &pool_action; }
    dataflow_node(dataflow_node const&) = delete;
    dataflow_node& operator=(dataflow_node const&) = delete;

    void add_ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }
    void release() noexcept {
        if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete this;
        }
    }

    [[nodiscard]] bool done() const noexcept {
        return done_.load(std::memory_order_acquire);
    }

    /// True once the node completed *with* a failure. Only meaningful
    /// after done() (error_ is written before the done_ store).
    [[nodiscard]] bool failed() const noexcept {
        return done() && error_ != nullptr;
    }

    /// Block until the loop has executed. Pool workers help run pending
    /// tasks — including this very node and its predecessors — so
    /// waiting never deadlocks, even on a single hardware thread.
    /// External threads help while there is stealable work and otherwise
    /// park on the completion hub (no spinning on an idle machine, same
    /// as the CV wait the future-based engine had).
    void wait() const {
        if (done()) {
            return;
        }
        auto& pool = *pool_;
        if (pool.on_worker_thread()) {
            while (!done()) {
                if (!pool.run_one()) {
                    std::this_thread::yield();
                }
            }
            return;
        }
        while (!done()) {
            if (!pool.run_one()) {
                detail::completion_hub::get().wait(
                    [this] { return done_seq_cst(); });
            }
        }
    }

    /// Bounded wait: like wait(), but gives up at `timeout`. Helping
    /// still happens while there is runnable work (a helper can run a
    /// long task past the deadline — the bound is best-effort, like any
    /// cooperative wait); once nothing is runnable the caller parks on
    /// the completion hub with the deadline. Returns done().
    [[nodiscard]] bool wait_for(std::chrono::nanoseconds timeout) const {
        if (done()) {
            return true;
        }
        auto const deadline = std::chrono::steady_clock::now() + timeout;
        auto& pool = *pool_;
        while (!done()) {
            if (!pool.run_one()) {
                if (std::chrono::steady_clock::now() >= deadline) {
                    return done();
                }
                if (pool.on_worker_thread()) {
                    // Workers never park on the hub (they must stay
                    // stealable); bounded yield-spin instead.
                    std::this_thread::yield();
                } else {
                    detail::completion_hub::get().wait_until(
                        deadline, [this] { return done_seq_cst(); });
                    if (std::chrono::steady_clock::now() >= deadline) {
                        return done();
                    }
                }
            }
        }
        return true;
    }

    /// wait(), then rethrow the loop's (or an inherited dependency's)
    /// failure, if any.
    void wait_and_rethrow() const {
        wait();
        if (error_) {
            std::rethrow_exception(error_);
        }
    }

    // -- diagnostics (stall watchdog / graph dumps) -------------------

    /// Stamp the node's graph-site identity: issuing loop name (a
    /// static string — loop names are string literals by convention),
    /// partition (a sub-node's slice index within its colour) and
    /// colour. kJoin as partition marks a loop's join node. Written at
    /// issue, before publication, like the hint.
    static constexpr std::uint32_t kJoin = ~std::uint32_t{0};
    void set_site(char const* loop, std::size_t partition,
                  std::size_t color) noexcept {
        site_loop_ = loop;
        site_partition_ = static_cast<std::uint32_t>(partition);
        site_color_ = static_cast<std::uint32_t>(color);
        // Job tag: null under the default context (the pre-service
        // output); a service job's name otherwise. The context outlives
        // the node — the loop's dats hold it (dat_impl::ctx).
        site_job_ = current_context()->label();
    }
    [[nodiscard]] char const* site_loop() const noexcept {
        return site_loop_;
    }
    /// Owning job's name when the node was issued under a service
    /// context, null for the default context. Stamped by set_site.
    [[nodiscard]] char const* site_job() const noexcept {
        return site_job_;
    }
    [[nodiscard]] std::uint32_t site_partition() const noexcept {
        return site_partition_;
    }
    [[nodiscard]] std::uint32_t site_color() const noexcept {
        return site_color_;
    }
    /// Affinity hint the node was issued with; size() (i.e. no worker)
    /// is reported as kJoin's ~0 pattern.
    [[nodiscard]] std::uint32_t worker_hint() const noexcept {
        return hint_;
    }

    /// Snapshot of the nodes still waiting on this one. A loop's join
    /// node sits in no dat record, so graph dumps reach it only through
    /// its sub-nodes' edges.
    void successors(std::vector<node_ref>& out) {
        std::lock_guard<hpxlite::util::spinlock> lk(succ_mtx_);
        out.assign(succs_.begin(), succs_.end());
    }

    // -- issue-side protocol (used by issue(), below) -----------------

    /// Add the edge pred -> this unless pred already completed (in which
    /// case only its failure, if any, is inherited). Self-edges are
    /// ignored.
    void depend_on(dataflow_node& pred) {
        if (&pred == this) {
            return;
        }
        std::lock_guard<hpxlite::util::spinlock> lk(pred.succ_mtx_);
        if (pred.done_.load(std::memory_order_acquire)) {
            if (pred.error_) {
                inherit_error(pred.error_);
            }
            return;
        }
        pred.succs_.emplace_back(this);
        pending_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Bind the execution pool. Must happen *before* the node is wired
    /// into any dep_record: publication makes the node reachable by
    /// concurrent fences, whose wait() dereferences pool_. (Visibility
    /// rides on the record spinlock the publisher and the fence both
    /// take.)
    void bind_pool(hpxlite::threads::thread_pool& pool) noexcept {
        pool_ = &pool;
    }

    /// Pin the node to a pool worker: once runnable it is submitted
    /// through the pool's affinity path (submit_to) instead of the
    /// issuer's own queue. Best-effort — stealing still rebalances.
    /// Every node that is queued needs one (a loop's sub-nodes); a node
    /// without one must run inline (set_run_inline). Must be set before
    /// the node is wired into any dep_record, like bind_pool.
    void set_worker_hint(std::size_t worker) noexcept {
        hint_ = static_cast<std::uint32_t>(worker);
    }

    /// Run the node on the thread that readies it instead of queueing
    /// it. For O(1) bodies only (a loop's join): a queued join sits
    /// under the successors its last sub-node readied, and a worker
    /// that keeps popping its newest task reaches it only once the
    /// chain ahead stalls — on a one-worker pool that is the next
    /// fence, with every finished loop's group still held. Must be set
    /// before schedule(), like the hint.
    void set_run_inline() noexcept { run_inline_ = true; }

    /// Drop the issue guard: the node becomes runnable as soon as its
    /// last predecessor finishes (or immediately, if none are pending).
    void schedule() { notify_pred_done(); }

    /// Seed a failure at issue time, before the node is scheduled: the
    /// body is skipped and waiters/successors see `e`, exactly as if a
    /// predecessor had failed. The quarantine layer uses this to fail a
    /// loop that reads poisoned partitions *fast* — asynchronously, at
    /// the same reporting point (handle.get()) as every other failure.
    void seed_error(std::exception_ptr e) noexcept {
        inherit_error(std::move(e));
    }

protected:
    virtual ~dataflow_node() = default;

    /// The node's failure (own or inherited), readable from run_body /
    /// on_complete: predecessors are all complete and successors cannot
    /// write error_ once the node is executing, so no lock is needed
    /// there.
    [[nodiscard]] std::exception_ptr const& error() const noexcept {
        return error_;
    }

    /// The loop body (backend.hpp: the staged executor sweep). Runs on a
    /// pool worker; exceptions are captured and propagated to dependents
    /// and waiters.
    virtual void run_body() = 0;

    /// Invoked once, right before completion is published: the node will
    /// keep existing inside dat dep_records until its epoch is
    /// superseded, so implementations drop any resources that point back
    /// at the dats here (breaking the dat <-> node ownership cycle).
    virtual void on_complete() noexcept {}

private:
    void notify_pred_done() {
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            add_ref();  // the queue's reference, dropped by pool_action
            auto* n = static_cast<hpxlite::threads::task_node*>(this);
            if (run_inline_) {
                pool_action(n, true);
            } else {
                pool_->submit_to(hint_, n);
            }
        }
    }

    void inherit_error(std::exception_ptr e) noexcept {
        std::lock_guard<hpxlite::util::spinlock> lk(succ_mtx_);
        if (!error_) {
            error_ = std::move(e);
        }
    }

    void complete() {
        std::vector<node_ref> succs;
        {
            std::lock_guard<hpxlite::util::spinlock> lk(succ_mtx_);
            // seq_cst: pairs with the hub waiter's registration (see
            // done_seq_cst) so notify() cannot read a stale zero waiter
            // count while this store is still buffered.
            done_.store(true, std::memory_order_seq_cst);
            succs.swap(succs_);
        }
        detail::completion_hub::get().notify();
        for (auto& s : succs) {
            if (error_) {
                s->inherit_error(error_);
            }
            s->notify_pred_done();
        }
    }

    /// Dekker-paired read of done_ for the completion-hub protocol: the
    /// waiter registers (seq_cst RMW on the hub's waiter count), then
    /// reads done_ seq_cst; the completer stores done_ seq_cst, then
    /// reads the waiter count seq_cst. The total order guarantees one
    /// side observes the other — no lost wakeup. Casual readers keep the
    /// cheaper acquire load in done().
    [[nodiscard]] bool done_seq_cst() const noexcept {
        return done_.load(std::memory_order_seq_cst);
    }

    static void pool_action(hpxlite::threads::task_node* n, bool run) {
        auto* self = static_cast<dataflow_node*>(n);
        if (run) {
            if (!self->error_) {  // inherited failure => skip the body
                try {
                    self->run_body();
                } catch (...) {
                    self->error_ = std::current_exception();
                }
            }
        } else if (!self->error_) {
            // Pool teardown with the loop still queued: never ran.
            self->error_ = std::make_exception_ptr(
                std::runtime_error("dataflow loop discarded at shutdown"));
        }
        self->on_complete();
        self->complete();
        self->release();  // the queue's reference
    }

    static constexpr std::uint32_t kNoHint = ~std::uint32_t{0};

    std::atomic<std::uint32_t> refs_{1};
    std::atomic<std::uint32_t> pending_{1};  // +1 issue guard
    std::uint32_t hint_ = kNoHint;  // affinity worker, written at issue
    bool run_inline_ = false;       // written at issue, before schedule()
    // Graph-site identity for watchdog dumps, written at issue.
    char const* site_loop_ = nullptr;
    char const* site_job_ = nullptr;   // non-null: service job's name
    std::uint32_t site_partition_ = 0;
    std::uint32_t site_color_ = 0;
    std::atomic<bool> done_{false};
    hpxlite::util::spinlock succ_mtx_;  // guards succs_ / error_ updates
    std::vector<node_ref> succs_;
    std::exception_ptr error_;
    hpxlite::threads::thread_pool* pool_ = nullptr;
};

inline node_ref::node_ref(dataflow_node* n, bool adopt) noexcept : n_(n) {
    if (n_ != nullptr && !adopt) {
        n_->add_ref();
    }
}
inline node_ref::node_ref(node_ref const& o) noexcept : n_(o.n_) {
    if (n_ != nullptr) {
        n_->add_ref();
    }
}
inline node_ref::~node_ref() {
    if (n_ != nullptr) {
        n_->release();
    }
}

/// One writer tracked by a dep_record: the node plus the colour tag it
/// was issued under (meaningful only while the record's same-loop write
/// burst is open — see dep_record).
struct dep_writer {
    node_ref node;
    std::uint32_t color = 0;
};

/// Per-dat dependency record. `epoch` increases by one per writing
/// *loop*; `writers` holds the node(s) that produce the current epoch
/// and `readers` the loops reading it. Invariant (same as PR 1's future
/// chains, minus the futures): a writer depends on the current writers
/// and every current reader (WAW + WAR), a reader depends on the
/// current writers only (RAW) — so readers of one epoch run
/// concurrently.
///
/// `writers` is plural because of the loop-local same-colour
/// non-conflict exemption: the sub-nodes of ONE loop write a record as
/// an open "burst" (`burst_loop` holds the loop's id while it lasts).
/// A loop's slices share one plan colouring, so two same-coloured
/// sub-nodes of one loop provably never mutate the same target element;
/// a burst member therefore skips the WAW edge to same-colour members
/// already in `writers` — that is what lets the slices of one colour
/// run concurrently — while still edging on
/// different-colour members (those may genuinely conflict) and on
/// `prev`, the epoch the burst displaced. `prev` stays alive until the
/// next loop's write closes the burst, so late-arriving members inherit
/// the displaced epoch's WAW/WAR (and error) edges exactly like the
/// first member did.
struct dep_record {
    hpxlite::util::spinlock mtx;
    std::uint64_t epoch = 0;
    std::uint64_t burst_loop = 0;  // open same-loop write burst (0 = none)
    std::vector<dep_writer> writers;
    std::vector<node_ref> readers;
    std::vector<node_ref> prev;  // displaced epoch, kept while burst open

    /// Snapshot for fences/tests: every node the record still tracks
    /// (current writers, the displaced epoch of an open burst, readers).
    void snapshot(std::vector<node_ref>& nodes) const {
        auto& self = const_cast<dep_record&>(*this);
        std::lock_guard<hpxlite::util::spinlock> lk(self.mtx);
        nodes.clear();
        nodes.reserve(self.writers.size() + self.prev.size() +
                      self.readers.size());
        for (auto const& w : self.writers) {
            nodes.push_back(w.node);
        }
        nodes.insert(nodes.end(), self.prev.begin(), self.prev.end());
        nodes.insert(nodes.end(), self.readers.begin(), self.readers.end());
    }

    /// Drop completed *failed* nodes from the record: the quarantine
    /// lift (dat::clear_quarantine). Failed history normally stays so
    /// later writers inherit the error; after an explicit lift, they
    /// must not. In-flight nodes are untouched — callers drain first.
    void prune_failed() {
        std::lock_guard<hpxlite::util::spinlock> lk(mtx);
        std::erase_if(writers, [](dep_writer const& w) {
            return w.node->done() && w.node->failed();
        });
        auto const dead = [](node_ref const& n) {
            return n->done() && n->failed();
        };
        std::erase_if(prev, dead);
        std::erase_if(readers, dead);
    }
};

// --- partition-granular quarantine ---------------------------------------

/// Why a byte range of a dat is poisoned: the sub-node that failed
/// while (potentially) writing it. Shared by every diagnostic derived
/// from the same failure.
struct poison_info {
    std::string loop;        // origin loop name
    std::string dat;         // written dat's name
    std::size_t partition = 0;  // failing sub-node's slice in its colour
    std::size_t color = 0;      // failing sub-node's colour
    std::exception_ptr origin;  // the original failure
};

/// One quarantined element range [lo, hi) of a dat's set. Spans are
/// *element*-granular, not record-granular, so a dependency table
/// rebuilt at another pool size carries them unmodified.
struct poison_span {
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::shared_ptr<poison_info const> info;
};

/// Thrown (asynchronously, through the issued node — or synchronously
/// by the seq/staged backends) when a loop reads a poisoned partition:
/// the structured fail-fast diagnostic naming the origin loop,
/// partition and colour, with the original exception reachable through
/// info().origin.
class quarantine_error : public std::runtime_error {
public:
    quarantine_error(std::string const& msg,
                     std::shared_ptr<poison_info const> info)
      : std::runtime_error(msg), info_(std::move(info)) {}

    [[nodiscard]] poison_info const& info() const noexcept {
        return *info_;
    }

private:
    std::shared_ptr<poison_info const> info_;
};

/// True when any dat of the *calling thread's context* holds a poison
/// span (relaxed; callers re-check under the dat's lock). Per-context:
/// one job's fault never makes another job's issue path scan — or
/// fail — which is the service layer's fault-isolation guarantee
/// (runtime_context::poison_spans).
[[nodiscard]] inline bool any_poisoned() noexcept {
    return current_context()->poison_spans.load(
               std::memory_order_relaxed) != 0;
}

/// Render an exception_ptr's message for diagnostics.
[[nodiscard]] inline std::string describe_exception(std::exception_ptr e) {
    if (!e) {
        return "(no exception)";
    }
    try {
        std::rethrow_exception(std::move(e));
    } catch (std::exception const& ex) {
        return ex.what();
    } catch (...) {
        return "(non-std exception)";
    }
}

/// Partition-granular dependency state of one dat: a table of
/// dep_records, one per partition of the dat's set, plus a dat-level
/// epoch counting issued writer *loops*. Loops touch only the records of
/// the partitions their sub-nodes can reach (the slice footprints:
/// iteration partitions for direct args, map-reached target partitions
/// for indirect ones), which is what lets independent partitions of
/// dependent loops overlap in the epoch graph.
///
/// Every hpx loop runs at one granularity, the global pool's worker
/// count, so the table is built at the dat's first loop and rebuilt only
/// when the pool was re-created at another size. hpxlite::init and
/// finalize drain the old pool before that, so every node the old table
/// tracks has completed and no issuer still holds it: the rebuild waits
/// for nothing. Completed-but-failed nodes are carried into the new table
/// so a later writer still inherits their error through its WAR/WAW
/// edges.
struct dep_state {
    hpxlite::util::spinlock mtx;  // guards count/recs, epoch and poison
    std::uint64_t epoch = 0;      // writer loops issued against this dat
    std::size_t count = 0;        // partition granularity of `recs`
    std::shared_ptr<dep_record[]> recs;

    /// The record table at granularity `p` as an owning snapshot, built
    /// (or rebuilt, see above) on first use at `p`; counts one issued
    /// writer loop when `write`. Called once per distinct dat per loop,
    /// at issue time on the issuing thread.
    std::shared_ptr<dep_record[]> records(std::size_t p, bool write) {
        std::lock_guard<hpxlite::util::spinlock> lk(mtx);
        if (write) {
            ++epoch;
        }
        if (count != p) {
            rebuild(p);
        }
        return recs;
    }

    /// Owning snapshot of the current table (fences, tests).
    std::pair<std::shared_ptr<dep_record[]>, std::size_t> table() const {
        auto& self = const_cast<dep_state&>(*this);
        std::lock_guard<hpxlite::util::spinlock> lk(self.mtx);
        return {self.recs, self.count};
    }

    // --- quarantine --------------------------------------------------------

    /// Quarantined element spans of this dat (guarded by `mtx`).
    /// Element-granular, so a table rebuild leaves them valid; the
    /// issue path only consults them behind the any_poisoned() gate.
    std::vector<poison_span> poison;

    /// Where this dat's live poison spans are counted: the owning
    /// context's gate (runtime_context::poison_spans), stamped at dat
    /// creation before any concurrent issue. Null falls back to the
    /// default context — a bare dep_state (tests) behaves exactly like
    /// a pre-context one.
    std::atomic<std::size_t>* poison_gate = nullptr;

    [[nodiscard]] std::atomic<std::size_t>& gate() noexcept {
        return poison_gate != nullptr
                   ? *poison_gate
                   : runtime_context::default_context()->poison_spans;
    }

    /// Quarantine elements [lo, hi): later loops reading them fail fast
    /// with a diagnostic built from `info`. Called from a failing
    /// sub-node's completion (best-effort; allocation failure there is
    /// swallowed by the caller, never worse than pre-quarantine
    /// behaviour).
    void add_poison(std::size_t lo, std::size_t hi,
                    std::shared_ptr<poison_info const> info) {
        std::lock_guard<hpxlite::util::spinlock> lk(mtx);
        poison.push_back({lo, hi, std::move(info)});
        gate().fetch_add(1, std::memory_order_relaxed);
    }

    /// First poison span overlapping [lo, hi), or null when the range is
    /// clean.
    [[nodiscard]] std::shared_ptr<poison_info const>
    find_poison(std::size_t lo, std::size_t hi) {
        std::lock_guard<hpxlite::util::spinlock> lk(mtx);
        for (auto const& s : poison) {
            if (s.lo < hi && lo < s.hi) {
                return s.info;
            }
        }
        return nullptr;
    }

    /// Lift this dat's quarantine (a direct full overwrite heals, and
    /// dat::clear_quarantine drains + calls this).
    void clear_poison() {
        std::lock_guard<hpxlite::util::spinlock> lk(mtx);
        if (!poison.empty()) {
            gate().fetch_sub(poison.size(), std::memory_order_relaxed);
            poison.clear();
        }
    }

    [[nodiscard]] std::size_t poison_count() const {
        auto& self = const_cast<dep_state&>(*this);
        std::lock_guard<hpxlite::util::spinlock> lk(self.mtx);
        return self.poison.size();
    }

    /// Forget all dependency history *and* quarantine: the checkpoint
    /// rollback path, called after a full fence (no tracked node can be
    /// live).
    void reset() {
        std::lock_guard<hpxlite::util::spinlock> lk(mtx);
        recs.reset();
        count = 0;
        if (!poison.empty()) {
            gate().fetch_sub(poison.size(), std::memory_order_relaxed);
            poison.clear();
        }
    }

    ~dep_state() {
        if (!poison.empty()) {
            gate().fetch_sub(poison.size(), std::memory_order_relaxed);
        }
    }

private:
    /// Replace the table with `p` fresh records (caller holds mtx). The
    /// old table's failed nodes ride along as (completed) readers of
    /// every new record, like the future chains rethrowing a
    /// dependency's exception. A carried node sits in every record of
    /// the table it was carried into, so it is collected once, not once
    /// per record: seeding duplicates back would multiply the carried
    /// set by the partition count on every resize.
    void rebuild(std::size_t p) {
        std::vector<node_ref> failed;
        std::vector<node_ref> nodes;
        for (std::size_t i = 0; i < count; ++i) {
            recs[i].snapshot(nodes);
            for (auto const& n : nodes) {
                if (n->failed() &&
                    std::none_of(failed.begin(), failed.end(),
                                 [&](node_ref const& f) {
                                     return f.get() == n.get();
                                 })) {
                    failed.push_back(n);
                }
            }
        }
        auto next = std::shared_ptr<dep_record[]>(new dep_record[p]);
        for (std::size_t i = 0; i < p; ++i) {
            next[i].readers = failed;
        }
        recs = std::move(next);
        count = p;
    }
};

/// One (record, access) pair of a sub-node being issued. A record may
/// appear more than once (two arguments reaching one dat partition);
/// issue() merges the duplicates, write dominating. `loop`/`color` carry
/// the same-colour exemption tag: `loop` is the issuing loop's nonzero
/// id (one per issue) and `color` the sub-node's plan colour.
struct dep_request {
    dep_record* rec = nullptr;
    bool write = false;
    std::uint64_t loop = 0;
    std::uint32_t color = 0;
};

namespace detail {

/// Wire `n` into one record (the caller holds the record's lock): a
/// writer edges on the current epoch and opens or joins a same-loop
/// burst, a reader edges on the current writers.
inline void wire(dataflow_node& n, dep_request const& rq) {
    dep_record& r = *rq.rec;
    if (rq.write) {
        if (r.burst_loop == rq.loop) {
            // Same-loop burst member: inherit the displaced epoch's
            // WAW/WAR edges, order after readers that slipped in
            // mid-burst (a concurrent issuer), and after
            // different-colour members — but NOT after same-colour
            // members, which the global colouring proves
            // conflict-free. This missing edge is the exemption.
            for (auto const& p : r.prev) {
                n.depend_on(*p);
            }
            for (auto const& rd : r.readers) {
                n.depend_on(*rd);
            }
            for (auto const& w : r.writers) {
                if (w.color != rq.color) {
                    n.depend_on(*w.node);
                }
            }
            r.writers.push_back({node_ref(&n), rq.color});
        } else {
            for (auto const& w : r.writers) {
                n.depend_on(*w.node);  // WAW
            }
            for (auto const& rd : r.readers) {
                n.depend_on(*rd);  // WAR
            }
            // Opening a burst: keep the displaced epoch (its writers
            // AND readers) alive, so later members inherit the same
            // WAW/WAR edges and errors this opener just took.
            r.prev.clear();
            r.prev.reserve(r.writers.size() + r.readers.size());
            for (auto& w : r.writers) {
                r.prev.push_back(std::move(w.node));
            }
            for (auto& rd : r.readers) {
                r.prev.push_back(std::move(rd));
            }
            r.readers.clear();
            r.writers.clear();
            r.writers.push_back({node_ref(&n), rq.color});
            r.burst_loop = rq.loop;
            ++r.epoch;
        }
    } else {
        for (auto const& w : r.writers) {
            n.depend_on(*w.node);  // RAW
        }
        // Readers of a never-rewritten dat would otherwise pile up
        // for the life of the program (read-only dats like airfoil's
        // coordinates are read by every iteration): drop completed
        // readers while we hold the lock anyway. In-flight readers
        // stay (WAR correctness), and *failed* readers stay too — a
        // future writer must still inherit their error through its
        // WAR edge, exactly as the future chains rethrew it.
        std::erase_if(r.readers, [](node_ref const& rd) {
            return rd->done() && !rd->failed();
        });
        // Same hygiene for the write side: a dat written once by a
        // loop and then only read would pin the burst's
        // writers and the displaced epoch (`prev`) for the rest of
        // the program. Completed healthy entries create no edges
        // anyway (depend_on is a no-op on done predecessors);
        // failed ones stay for error inheritance.
        std::erase_if(r.writers, [](dep_writer const& w) {
            return w.node->done() && !w.node->failed();
        });
        std::erase_if(r.prev, [](node_ref const& p) {
            return p->done() && !p->failed();
        });
        r.readers.emplace_back(&n);
    }
}

}  // namespace detail

/// Wire `n` into the graph under its records' locks (issue order defines
/// program order), then drop the issue guard so it runs as soon as its
/// dependencies allow — possibly immediately, possibly never touching a
/// future or allocating anything.
///
/// Every record is locked before any is updated, in address order (the
/// order every issuer shares, so two never deadlock), which makes the
/// node's wiring one atomic step: each edge then runs from an
/// earlier-wired node to a later one, so issuers on several threads
/// sharing dats cannot close a cycle. Wired one record at a time, a node
/// could land after another thread's node on one record and before it
/// on the next — each waiting on the other forever. `reqs` is sorted
/// and merged in place.
inline void issue(dataflow_node& n, std::span<dep_request> reqs,
                  hpxlite::threads::thread_pool& pool) {
    std::ranges::sort(reqs, {}, &dep_request::rec);
    std::size_t m = 0;
    for (auto const& rq : reqs) {
        if (m > 0 && reqs[m - 1].rec == rq.rec) {
            reqs[m - 1].write = reqs[m - 1].write || rq.write;
        } else {
            reqs[m++] = rq;
        }
    }
    reqs = reqs.first(m);
    // The pool must be bound before the first record publishes the node:
    // a fence on another thread may pick the ref up and wait() on it
    // while this loop is still running.
    n.bind_pool(pool);
    for (auto const& rq : reqs) {
        rq.rec->mtx.lock();
    }
    struct unlock_all {
        std::span<dep_request> reqs;
        ~unlock_all() {
            for (auto const& rq : reqs) {
                rq.rec->mtx.unlock();
            }
        }
    };
    {
        unlock_all const locked{reqs};
        for (auto const& rq : reqs) {
            detail::wire(n, rq);
        }
    }
    n.schedule();
}

}  // namespace op2::exec
