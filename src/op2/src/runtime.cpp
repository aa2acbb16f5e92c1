#include <op2/runtime.hpp>

namespace op2 {

config& global_config() {
    static config cfg;
    return cfg;
}

void op_set_backend(backend b) { global_config().be = b; }

void op_set_part_size(std::size_t part_size) {
    global_config().opts.part_size = part_size;
}

void op_fence(op_dat const& d) {
    if (!d.valid()) {
        return;
    }
    detail::fence_dat(const_cast<op_dat&>(d).internal());
}

void op_fence_all() {
    for (auto const& di : detail::all_dats()) {
        detail::fence_dat(*di);
    }
}

}  // namespace op2
