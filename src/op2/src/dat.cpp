#include <op2/dat.hpp>

#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include <op2/context.hpp>
#include <op2/memory.hpp>
#include <op2/set.hpp>

namespace op2 {

namespace {
// Registry of all declared dats: op_fence_all() needs to find every dat
// with outstanding asynchronous work.
std::mutex g_registry_mtx;
std::vector<std::weak_ptr<detail::dat_impl>> g_registry;
}  // namespace

namespace detail {

op_dat make_dat(op_set s, int dim, std::size_t elem_bytes,
                std::string_view type, void const* init, std::string name) {
    auto impl = std::make_shared<dat_impl>();
    impl->set = std::move(s);
    impl->dim = dim;
    impl->elem_bytes = elem_bytes;
    impl->type_name = std::string(type);
    impl->name = std::move(name);
    impl->id = next_entity_id();
    impl->ctx = current_context();
    impl->dep.poison_gate = &impl->ctx->poison_spans;
    std::size_t const stride = static_cast<std::size_t>(dim) * elem_bytes;
    std::size_t const bytes = impl->set.size() * stride;
    impl->data = memory::aligned_buffer(bytes);
    if (bytes > 0) {
        if (init != nullptr) {
            std::memcpy(impl->data.data(), init, bytes);
        } else {
            std::memset(impl->data.data(), 0, bytes);
        }
    }
    {
        std::lock_guard<std::mutex> lk(g_registry_mtx);
        g_registry.push_back(impl);
    }
    return detail_make_dat(std::move(impl));
}

std::vector<std::shared_ptr<dat_impl>> all_dats() {
    std::lock_guard<std::mutex> lk(g_registry_mtx);
    std::vector<std::shared_ptr<dat_impl>> out;
    out.reserve(g_registry.size());
    for (auto it = g_registry.begin(); it != g_registry.end();) {
        if (auto p = it->lock()) {
            out.push_back(std::move(p));
            ++it;
        } else {
            it = g_registry.erase(it);  // drop expired entries
        }
    }
    return out;
}

void fence_dat(dat_impl& di) {
    // Snapshot each partition record's nodes under its lock, wait
    // outside it (waiting helps the pool, so holding the lock could
    // deadlock the very loops being waited for). The owning table
    // snapshot keeps the records alive should the table be rebuilt
    // meanwhile.
    auto const [recs, count] = di.dep.table();
    std::vector<exec::node_ref> nodes;
    for (std::size_t p = 0; p < count; ++p) {
        recs[p].snapshot(nodes);
        for (auto& n : nodes) {
            n->wait();
        }
    }
}

}  // namespace detail

op_dat detail_make_dat(std::shared_ptr<detail::dat_impl> p) {
    return op_dat(std::move(p));
}

void op_dat::clear_quarantine() {
    if (!impl_) {
        return;
    }
    // prune_failed below only removes *completed* failed nodes, so
    // everything in flight must land first.
    detail::fence_dat(*impl_);
    auto const [recs, count] = impl_->dep.table();
    for (std::size_t p = 0; p < count; ++p) {
        recs[p].prune_failed();
    }
    impl_->dep.clear_poison();
}

}  // namespace op2
