#pragma once

// One env-flag parser for every boolean knob (OP2HPX_BIND_WORKERS,
// OP2HPX_AUTOTUNE): the accepted spellings must not drift between
// knobs, and a fix must reach all of them.

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
