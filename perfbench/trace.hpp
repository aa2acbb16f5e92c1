#pragma once

// In-memory span recorder of the traced benchmark run.
//
// A span is one call into a public layer of op2hpx, recorded from the
// benchmark's own code around that call: name, layer (category),
// start, end, the span that was open on the same thread when it began
// (its parent), and a group id shared by every span of one march or
// one service job. Spans stay in memory while the run measures and are
// written once at exit as Chrome Trace Event JSON ("X" complete
// events), a documented format that Perfetto and chrome://tracing open
// directly.
//
// When the recorder is off, span_scope only reads the clock: the
// untraced run, which gives every end-to-end number, never takes the
// recorder's lock.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    static clock_type::time_point const epoch = clock_type::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now() - epoch)
        .count();
}

struct span_rec {
    char const* name = "";
    char const* cat = "";
    char const* detail = nullptr;  ///< e.g. the loop a run_loop span issued
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t group = 0;
    std::uint32_t tid = 0;
};

class tracer {
public:
    void enable() { on_ = true; }
    [[nodiscard]] bool on() const noexcept { return on_; }

    std::uint64_t next_id() {
        return next_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Keeps at most kMaxSpans spans (about 20 MB of JSON); later ones
    /// are counted, not kept. Layer timings never depend on the kept set.
    void record(span_rec const& r) {
        std::lock_guard<std::mutex> lk(mtx_);
        if (spans_.size() < kMaxSpans) {
            spans_.push_back(r);
        } else {
            ++dropped_;
        }
    }

    [[nodiscard]] std::size_t size() const {
        std::lock_guard<std::mutex> lk(mtx_);
        return spans_.size();
    }
    [[nodiscard]] std::size_t dropped() const {
        std::lock_guard<std::mutex> lk(mtx_);
        return dropped_;
    }

    /// Write every recorded span as Chrome Trace Event JSON. Returns
    /// false when the file cannot be written.
    bool write_chrome(std::string const& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        std::lock_guard<std::mutex> lk(mtx_);
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto const& s = spans_[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                "\"args\":{\"id\":%llu,\"parent\":%llu,\"group\":%llu%s%s%s}}",
                i == 0 ? "" : ",\n", s.name, s.cat,
                static_cast<double>(s.t0_ns) * 1e-3,
                static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, s.tid,
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.group),
                s.detail != nullptr ? ",\"detail\":\"" : "",
                s.detail != nullptr ? s.detail : "",
                s.detail != nullptr ? "\"" : "");
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

private:
    static constexpr std::size_t kMaxSpans = 250000;
    bool on_ = false;
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mtx_;
    std::vector<span_rec> spans_;
    std::size_t dropped_ = 0;
};

/// The process's recorder (enabled by --trace 1).
inline tracer& spans() {
    static tracer t;
    return t;
}

namespace detail {
inline thread_local std::uint64_t tl_parent = 0;
inline thread_local std::uint64_t tl_group = 0;

inline std::uint32_t thread_number() {
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t const n =
        next.fetch_add(1, std::memory_order_relaxed);
    return n;
}
}  // namespace detail

/// Every span opened on this thread while the scope lives carries
/// `group` (one march, one service job); the first one names `parent`
/// as its parent (a span opened on another thread, e.g. the submit of
/// the job whose body runs here).
class group_scope {
public:
    group_scope(std::uint64_t group, std::uint64_t parent)
      : prev_group_(detail::tl_group), prev_parent_(detail::tl_parent) {
        detail::tl_group = group;
        detail::tl_parent = parent;
    }
    ~group_scope() {
        detail::tl_group = prev_group_;
        detail::tl_parent = prev_parent_;
    }
    group_scope(group_scope const&) = delete;
    group_scope& operator=(group_scope const&) = delete;

private:
    std::uint64_t prev_group_;
    std::uint64_t prev_parent_;
};

/// Times one layer call; records it as a span when the recorder is on.
/// Spans opened inside this one (same thread) name it as their parent.
class span_scope {
public:
    span_scope(char const* name, char const* cat, char const* what = nullptr)
      : t0_(now_ns()) {
        if (spans().on()) {
            rec_.name = name;
            rec_.cat = cat;
            rec_.detail = what;
            rec_.id = spans().next_id();
            rec_.parent = detail::tl_parent;
            rec_.group = detail::tl_group;
            rec_.tid = detail::thread_number();
            detail::tl_parent = rec_.id;
        }
    }
    ~span_scope() { close(); }
    span_scope(span_scope const&) = delete;
    span_scope& operator=(span_scope const&) = delete;

    /// End the span now (idempotent); returns its duration in ms.
    double close() {
        if (!closed_) {
            closed_ = true;
            t1_ = now_ns();
            if (rec_.id != 0) {
                rec_.t0_ns = t0_;
                rec_.t1_ns = t1_;
                detail::tl_parent = rec_.parent;
                spans().record(rec_);
            }
        }
        return ms();
    }

    [[nodiscard]] double ms() const {
        return static_cast<double>((closed_ ? t1_ : now_ns()) - t0_) * 1e-6;
    }
    [[nodiscard]] std::int64_t start_ns() const noexcept { return t0_; }
    /// Span id (0 when the recorder is off).
    [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

private:
    std::int64_t t0_;
    std::int64_t t1_ = 0;
    bool closed_ = false;
    span_rec rec_;
};

}  // namespace perfbench
