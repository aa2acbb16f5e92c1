// Umbrella header for hpxlite — the HPX-runtime subset reimplemented for
// the OP2/HPX paper reproduction. See ARCHITECTURE.md (layer map) for its
// scope.
#pragma once

#include <hpxlite/config.hpp>
#include <hpxlite/runtime.hpp>

#include <hpxlite/threads/thread_pool.hpp>

#include <hpxlite/lcos/dataflow.hpp>
#include <hpxlite/lcos/future.hpp>
#include <hpxlite/lcos/sync.hpp>
#include <hpxlite/lcos/when_all.hpp>

#include <hpxlite/execution/chunkers.hpp>
#include <hpxlite/execution/policy.hpp>

#include <hpxlite/algorithms/for_each.hpp>
#include <hpxlite/algorithms/for_loop.hpp>
#include <hpxlite/algorithms/reduce.hpp>
#include <hpxlite/algorithms/transform.hpp>

#include <hpxlite/prefetching/prefetcher.hpp>

#include <hpxlite/util/irange.hpp>
#include <hpxlite/util/timing.hpp>
#include <hpxlite/util/unwrapped.hpp>
