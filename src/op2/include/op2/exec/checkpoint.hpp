#pragma once

// Epoch checkpoint/rollback for fault-tolerant execution.
//
// A checkpoint snapshots the contents of a chosen dat set at a fence
// and can later restore them wholesale: rollback() re-establishes the
// captured bytes, forgets the dats' dependency history, and lifts their
// quarantine, so a program that caught a failed epoch (an injected
// fault, a throwing kernel) can re-issue the epoch's loops against
// known-good state. The airfoil driver's --checkpoint-every N /
// --retries K recovery demo is built on exactly this:
//
//   ckpt.capture({p_q, p_qold, p_adt, p_res});
//   try { issue epoch; handles.get(); }
//   catch (...) { op_fence_all(); ckpt.rollback(); retry; }
//
// Snapshot and restore copy each dat with one memcpy on the calling
// thread: both run at a fence, off the loop path.

#include <cstddef>
#include <vector>

#include <op2/dat.hpp>
#include <op2/memory.hpp>

namespace op2::exec {

class checkpoint {
public:
    checkpoint() = default;
    checkpoint(checkpoint const&) = delete;
    checkpoint& operator=(checkpoint const&) = delete;
    checkpoint(checkpoint&&) = default;
    checkpoint& operator=(checkpoint&&) = default;

    /// Snapshot `dats`: fence each one (drain its in-flight loops),
    /// then copy its contents into checkpoint-owned aligned buffers.
    /// Capturing the same dat list again reuses the buffers (the
    /// steady-state epoch advance allocates nothing); a different list
    /// rebuilds them. Buffer allocation goes through the fault layer's
    /// alloc injection point, so a capture itself can be made to fail —
    /// the previous snapshot is discarded only after its replacement
    /// exists per dat (a failed capture leaves a mixed-age snapshot;
    /// callers should treat a capture failure as fatal for this
    /// checkpoint and re-capture).
    void capture(std::vector<op_dat> const& dats);

    /// Restore every captured dat: quiesce the graph (op_fence_all),
    /// forget the dats' dependency records *and* poison spans
    /// (dep_state::reset), then copy the snapshot bytes back. Throws
    /// std::logic_error when nothing was captured.
    void rollback();

    /// True once capture() succeeded at least once.
    [[nodiscard]] bool valid() const noexcept { return !entries_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept {
        return entries_.size();
    }

private:
    struct entry {
        op_dat dat;
        memory::aligned_buffer copy;
    };
    std::vector<entry> entries_;
};

}  // namespace op2::exec
