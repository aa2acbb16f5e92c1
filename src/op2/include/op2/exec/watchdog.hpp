#pragma once

// Stall watchdog and epoch-graph dumps for fault-tolerant execution.
//
// A dataflow program that deadlocks (a dropped task, a kernel stuck on
// a lock, a dependency wired against a node that will never run) shows
// up as a frozen pool: tasks_pending() > 0 while tasks_executed() stops
// moving. The watchdog samples both counters from a helper thread and,
// after `stall` without progress, writes a dump of the live epoch graph
// — every pending sub-node with its loop name, slice, colour and
// worker hint, plus each dat's dependency-record table and quarantine
// state — so a hung run leaves the evidence needed to find the stuck
// site. Pairs with loop_handle::wait_for: the caller bounds its wait,
// the watchdog names what it timed out on.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <thread>

namespace op2::exec {

/// Write a human-readable snapshot of the live epoch graph to `os`:
/// pending (issued, not yet completed) sub-nodes deduplicated across
/// every dat's dependency records, then the per-dat record tables with
/// their quarantine span counts. Safe to call from any thread at any
/// time; the snapshot is advisory (taken under the per-record locks,
/// but the graph keeps moving).
void dump_graph(std::ostream& os);

/// No-progress watchdog on the global pool. Construction starts the
/// sampling thread; destruction stops and joins it. Each report is one
/// dump_graph() to the configured stream (default std::cerr).
class watchdog {
public:
    /// Report when the pool makes no progress for `stall` while work is
    /// pending. `out` overrides the report stream (tests).
    explicit watchdog(std::chrono::milliseconds stall,
                      std::ostream* out = nullptr);
    watchdog(watchdog const&) = delete;
    watchdog& operator=(watchdog const&) = delete;
    ~watchdog();

    /// Number of stall reports written so far.
    [[nodiscard]] std::size_t reports() const noexcept {
        return reports_.load(std::memory_order_relaxed);
    }

private:
    void run(std::chrono::milliseconds stall);

    std::ostream* out_;
    std::atomic<std::size_t> reports_{0};
    std::mutex mtx_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace op2::exec
