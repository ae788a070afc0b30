#include "util/str_format.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace graphsd {
namespace {

TEST(StrFormat, FormatsLikePrintf) {
  EXPECT_EQ(StrPrintf("plain"), "plain");
  EXPECT_EQ(StrPrintf("%s=%d (%.2f)", "k", 7, 1.5), "k=7 (1.50)");
  EXPECT_EQ(StrPrintf("%llu", 18446744073709551615ull),
            "18446744073709551615");
}

TEST(StrFormat, EmptyResult) { EXPECT_EQ(StrPrintf("%s", ""), ""); }

TEST(StrFormat, NoTruncationPastFixedBufferSizes) {
  // The snprintf idiom this replaced used 256-byte stack buffers; make sure
  // arbitrarily long fields come back whole.
  const std::string long_field(10000, 'x');
  const std::string out = StrPrintf("name=%s!", long_field.c_str());
  EXPECT_EQ(out.size(), long_field.size() + 6);
  EXPECT_EQ(out, "name=" + long_field + "!");
}

TEST(StrFormat, AppendKeepsExistingContent) {
  std::string out = "head:";
  StrAppendf(&out, " %s", "tail");
  StrAppendf(&out, " %d", 3);
  EXPECT_EQ(out, "head: tail 3");
}

TEST(StrFormat, AppendLongContent) {
  const std::string big(4096, 'y');
  std::string out = "x";
  StrAppendf(&out, "%s", big.c_str());
  EXPECT_EQ(out.size(), 1 + big.size());
}

TEST(StrFormat, AppendDouble17gMatchesPrintf) {
  using Limits = std::numeric_limits<double>;
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           42.0,
                           1e16,
                           123456789012345678.0,
                           0.1,
                           1.0 / 3.0,
                           3.814697265625e-06,
                           1e300,
                           -1e300,
                           1e-300,
                           -1e-300,
                           Limits::denorm_min(),
                           -Limits::denorm_min(),
                           Limits::min() / 3,
                           Limits::max(),
                           Limits::lowest(),
                           Limits::infinity(),
                           -Limits::infinity(),
                           Limits::quiet_NaN(),
                           -Limits::quiet_NaN()};
  for (const double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g", v);
    std::string out = "x";
    AppendDouble17g(&out, v);
    EXPECT_EQ(out, std::string("x") + expected) << expected;
  }
  for (int i = -20; i <= 20; ++i) {  // integers and powers of two
    for (const double v : {static_cast<double>(i), std::ldexp(1.0, i * 50)}) {
      char expected[64];
      std::snprintf(expected, sizeof(expected), "%.17g", v);
      std::string out;
      AppendDouble17g(&out, v);
      EXPECT_EQ(out, expected);
    }
  }
}

}  // namespace
}  // namespace graphsd
