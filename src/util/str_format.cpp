#include "util/str_format.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdio>

#include "util/status.hpp"

namespace graphsd {
namespace {

void VAppendf(std::string* out, const char* format, std::va_list args) {
  std::va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  GRAPHSD_CHECK(needed >= 0);  // encoding error in the format string
  const std::size_t base = out->size();
  out->resize(base + static_cast<std::size_t>(needed) + 1);
  std::vsnprintf(out->data() + base, static_cast<std::size_t>(needed) + 1,
                 format, args);
  out->resize(base + static_cast<std::size_t>(needed));
}

}  // namespace

std::string StrPrintf(const char* format, ...) {
  std::string out;
  std::va_list args;
  va_start(args, format);
  VAppendf(&out, format, args);
  va_end(args);
  return out;
}

void StrAppendf(std::string* out, const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  VAppendf(out, format, args);
  va_end(args);
}

void AppendDouble17g(std::string* out, double value) {
  // 17 significant digits, a sign, a point and a 4-character exponent fit
  // in 25 bytes; 32 leaves room for "-nan".
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  GRAPHSD_CHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

}  // namespace graphsd
