#pragma once

// Shared helpers for the figure harnesses: table printing and the
// host-measured mini-Airfoil runs that accompany the testbed model.

#include <cstdio>
#include <string>
#include <vector>

#include <psim/testbed.hpp>

namespace benchutil {

inline void print_title(char const* id, char const* what) {
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, what);
    std::printf("Modeled testbed: 2x Xeon E5-2630 (16 cores, HT on), Airfoil\n");
    std::printf("~720K nodes / 1.5M edges; this host runs a discrete-event\n");
    std::printf("model of that machine (see ARCHITECTURE.md, psim/).\n");
    std::printf("==============================================================\n");
}

inline void print_row(std::vector<std::string> const& cells,
                      int width = 14) {
    for (auto const& c : cells) {
        std::printf("%*s", width, c.c_str());
    }
    std::printf("\n");
}

inline std::string fmt(double v, int prec = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

inline std::string pct(double ratio) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", (ratio - 1.0) * 100.0);
    return buf;
}

}  // namespace benchutil
