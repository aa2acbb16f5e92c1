#include <op2/runtime.hpp>

#include <mutex>

#include <op2/exec/dataflow.hpp>

namespace op2 {

config& global_config() {
    static config cfg;
    return cfg;
}

void op_set_backend(backend b) { global_config().be = b; }

void op_set_part_size(std::size_t part_size) {
    global_config().opts.part_size = part_size;
}

namespace {

void fence_impl(detail::dat_impl& di) {
    // Snapshot each partition record's nodes under its lock, wait
    // outside it (waiting helps the pool, so holding the lock could
    // deadlock the very loops being waited for). The owning table
    // snapshot keeps the records alive across a concurrent
    // re-partition.
    auto const [recs, count] = di.dep.table();
    std::vector<exec::node_ref> nodes;
    for (std::size_t p = 0; p < count; ++p) {
        recs[p].snapshot(nodes);
        for (auto& n : nodes) {
            n->wait();
        }
    }
}

}  // namespace

void op_fence(op_dat const& d) {
    if (!d.valid()) {
        return;
    }
    fence_impl(const_cast<op_dat&>(d).internal());
}

void op_fence_all() {
    for (auto const& di : detail::all_dats()) {
        fence_impl(*di);
    }
}

}  // namespace op2
