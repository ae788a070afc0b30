// printf-style formatting into std::string with no truncation: sizes the
// output with a measuring vsnprintf pass, then writes. Replaces the
// fixed-buffer snprintf idiom in report/cost-model ToString paths, where a
// long dataset or engine name used to truncate silently.
#pragma once

#include <string>

namespace graphsd {

/// Returns the fully formatted string regardless of length.
std::string StrPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends the formatted string to `*out`.
void StrAppendf(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// Appends `value` byte-identically to printf's "%.17g" (the round-trip
/// format of every values file), via std::to_chars: no format parsing, no
/// locale, several times faster than snprintf per value.
void AppendDouble17g(std::string* out, double value);

}  // namespace graphsd
