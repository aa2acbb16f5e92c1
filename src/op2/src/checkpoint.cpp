#include <op2/exec/checkpoint.hpp>

#include <cstring>
#include <stdexcept>

#include <op2/runtime.hpp>

namespace op2::exec {

void checkpoint::capture(std::vector<op_dat> const& dats) {
    bool same = entries_.size() == dats.size();
    for (std::size_t i = 0; same && i < dats.size(); ++i) {
        same = entries_[i].dat == dats[i];
    }
    if (!same) {
        std::vector<entry> next;
        next.reserve(dats.size());
        for (op_dat const& d : dats) {
            if (!d.valid()) {
                throw std::invalid_argument(
                    "op2.checkpoint: capture of an invalid dat handle");
            }
            // Allocation goes through fault::on_alloc (an armed alloc=K
            // plan can fail a snapshot); throw before touching entries_.
            next.push_back(
                {d, memory::aligned_buffer(d.internal().data.size())});
        }
        entries_ = std::move(next);
    }

    // Fence first, copy second: by the time any byte is copied, every
    // in-flight loop touching any captured dat has completed, so the
    // snapshot is one consistent epoch cut (capture runs on the
    // application thread; nothing is being issued concurrently).
    for (entry const& e : entries_) {
        op_fence(e.dat);
    }
    for (entry& e : entries_) {
        auto const& di = e.dat.internal();
        if (!di.data.empty()) {
            std::memcpy(e.copy.data(), di.data.data(), di.data.size());
        }
    }
}

void checkpoint::rollback() {
    if (entries_.empty()) {
        throw std::logic_error("op2.checkpoint: rollback without capture");
    }
    // Quiesce the whole graph, not just the captured dats: a pending
    // loop elsewhere could still hold edges into these dats' records,
    // and reset() below forgets those records wholesale.
    op_fence_all();
    for (entry& e : entries_) {
        auto& di = e.dat.internal();
        di.dep.reset();
        if (!di.data.empty()) {
            std::memcpy(di.data.data(), e.copy.data(), di.data.size());
        }
    }
}

}  // namespace op2::exec
