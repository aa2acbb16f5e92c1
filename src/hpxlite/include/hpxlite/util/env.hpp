#pragma once

// The env-flag parser for boolean knobs (today OP2HPX_BIND_WORKERS):
// one place for the accepted spellings, so a later boolean knob cannot
// drift from them.

#include <cstdlib>
#include <cstring>

namespace hpxlite::util {

/// Read boolean environment variable `name`. Unset or unrecognised
/// values yield `fallback`; 1/on/true/yes mean true and 0/off/false/no
/// mean false, case-insensitively.
[[nodiscard]] inline bool env_flag(char const* name, bool fallback) noexcept {
    char const* v = std::getenv(name);
    if (v == nullptr) {
        return fallback;
    }
    auto matches = [v](char const* word) {
        std::size_t i = 0;
        for (; word[i] != '\0'; ++i) {
            char const c = v[i];
            char const lower =
                c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
            if (lower != word[i]) {
                return false;
            }
        }
        return v[i] == '\0';
    };
    for (char const* t : {"1", "on", "true", "yes"}) {
        if (matches(t)) {
            return true;
        }
    }
    for (char const* f : {"0", "off", "false", "no"}) {
        if (matches(f)) {
            return false;
        }
    }
    return fallback;
}

}  // namespace hpxlite::util
