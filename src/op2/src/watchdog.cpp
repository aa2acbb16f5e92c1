#include <op2/exec/watchdog.hpp>

#include <algorithm>
#include <iostream>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/dat.hpp>
#include <op2/exec/dataflow.hpp>

namespace op2::exec {

void dump_graph(std::ostream& os) {
    auto const dats = op2::detail::all_dats();

    // Pending sub-nodes, deduplicated across records (a node sits in
    // one record per dat partition it touches).
    std::vector<node_ref> pending;
    std::vector<node_ref> scratch;
    auto add_pending = [&](node_ref const& n) {
        if (!n->done() &&
            std::find_if(pending.begin(), pending.end(),
                         [&](node_ref const& q) { return &*q == &*n; }) ==
                pending.end()) {
            pending.push_back(n);
        }
    };
    for (auto const& di : dats) {
        auto const [recs, count] = di->dep.table();
        for (std::size_t p = 0; p < count; ++p) {
            recs[p].snapshot(scratch);
            for (auto& n : scratch) {
                add_pending(n);
            }
        }
    }
    // Join nodes wait on edges, not on records: follow the successors.
    for (std::size_t i = 0; i < pending.size(); ++i) {
        pending[i]->successors(scratch);
        for (auto& n : scratch) {
            add_pending(n);
        }
    }

    os << "op2.watchdog: epoch graph dump: " << pending.size()
       << " pending sub-node(s)\n";
    for (auto const& n : pending) {
        os << "  pending: loop '"
           << (n->site_loop() != nullptr ? n->site_loop() : "?") << "'";
        if (n->site_job() != nullptr) {
            // Service-mode node: name the owning job so a stall in a
            // multi-tenant process attributes itself.
            os << " [job " << n->site_job() << "]";
        }
        if (n->site_partition() == dataflow_node::kJoin) {
            os << " join";
        } else {
            os << " partition " << n->site_partition() << " colour "
               << n->site_color();
        }
        if (n->worker_hint() != dataflow_node::kJoin) {
            os << " (worker hint " << n->worker_hint() << ")";
        }
        os << "\n";
    }

    os << "op2.watchdog: dat record tables\n";
    for (auto const& di : dats) {
        auto const [recs, count] = di->dep.table();
        std::size_t tracked = 0;
        for (std::size_t p = 0; p < count; ++p) {
            recs[p].snapshot(scratch);
            tracked += scratch.size();
        }
        os << "  dat '" << di->name << "'";
        if (di->ctx && di->ctx->label() != nullptr) {
            os << " [job " << di->ctx->label() << "]";
        }
        os << ": " << count << " record partition(s), " << tracked
           << " tracked node(s), " << di->dep.poison_count()
           << " poison span(s)\n";
    }
    os.flush();
}

watchdog::watchdog(std::chrono::milliseconds stall, std::ostream* out)
  : out_(out != nullptr ? out : &std::cerr),
    thread_([this, stall] { run(stall); }) {}

watchdog::~watchdog() {
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void watchdog::run(std::chrono::milliseconds stall) {
    auto& pool = hpxlite::get_pool();
    auto const tick =
        std::max<std::chrono::milliseconds>(stall / 4,
                                            std::chrono::milliseconds(1));
    std::uint64_t last_executed = pool.tasks_executed();
    auto last_progress = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lk(mtx_);
    while (!cv_.wait_for(lk, tick, [this] { return stop_; })) {
        std::uint64_t const executed = pool.tasks_executed();
        std::size_t const pend = pool.tasks_pending();
        auto const now = std::chrono::steady_clock::now();
        if (executed != last_executed || pend == 0) {
            last_executed = executed;
            last_progress = now;
            continue;
        }
        if (now - last_progress >= stall) {
            *out_ << "op2.watchdog: no progress for "
                  << std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - last_progress)
                         .count()
                  << " ms with " << pend << " task(s) pending\n";
            dump_graph(*out_);
            reports_.fetch_add(1, std::memory_order_relaxed);
            // Re-arm: a still-frozen pool reports again one full stall
            // period later, not every tick.
            last_progress = now;
        }
    }
}

}  // namespace op2::exec
