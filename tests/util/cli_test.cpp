#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>

namespace graphsd {
namespace {

CliFlags MakeFlags() {
  CliFlags flags;
  flags.Define("name", "default", "a string flag");
  flags.DefineInt("count", "10", "an int flag", 1000);
  flags.DefineDouble("ratio", "0.5", "a double flag");
  flags.Define("verbose", "false", "a bool flag");
  return flags;
}

TEST(CliFlags, DefaultsApply) {
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetString("name"), "default");
  EXPECT_EQ(flags.GetInt("count"), 10);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.5);
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(CliFlags, EqualsForm) {
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog", "--name=xyz", "--count=42"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.GetString("name"), "xyz");
  EXPECT_EQ(flags.GetInt("count"), 42);
}

TEST(CliFlags, SpaceForm) {
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog", "--ratio", "0.25"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.25);
}

TEST(CliFlags, BareBooleanForm) {
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(CliFlags, BoolAcceptedSpellings) {
  for (const char* spelling : {"true", "1", "yes", "on"}) {
    CliFlags flags = MakeFlags();
    const std::string arg = std::string("--verbose=") + spelling;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(flags.Parse(2, argv).ok());
    EXPECT_TRUE(flags.GetBool("verbose")) << spelling;
  }
}

TEST(CliFlags, UnknownFlagIsError) {
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog", "--bogus=1"};
  const Status s = flags.Parse(2, argv);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bogus"), std::string::npos);
}

TEST(CliFlags, PositionalArgumentsCollected) {
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog", "input.txt", "--count=3", "output.txt"};
  ASSERT_TRUE(flags.Parse(4, argv).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

// A numeric flag takes only a whole number in range; anything else is a
// usage error that names the flag, in both the `=` and the space form.
TEST(CliFlags, MalformedOrOutOfRangeNumbersAreErrors) {
  const char* const bad[][2] = {
      {"--count", "abc"}, {"--count", "12x"},   {"--count", "-3"},
      {"--count", "1001"}, {"--count", "1.5"},  {"--count", ""},
      {"--ratio", "x"},    {"--ratio", "-0.5"}, {"--ratio", "inf"},
      {"--ratio", "nan"},  {"--ratio", "0.5s"}, {"--count", "99999999999999999999"},
  };
  for (const auto& [name, value] : bad) {
    SCOPED_TRACE(std::string(name) + " " + value);
    for (const bool equals_form : {false, true}) {
      CliFlags flags = MakeFlags();
      const std::string joined = std::string(name) + "=" + value;
      const char* space_argv[] = {"prog", name, value};
      const char* equals_argv[] = {"prog", joined.c_str()};
      const Status s = equals_form ? flags.Parse(2, equals_argv)
                                   : flags.Parse(3, space_argv);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(s.message().find(std::string(name)), std::string::npos)
          << s.message();
    }
  }
  // A numeric flag given bare (no value) is malformed too.
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog", "--count"};
  EXPECT_EQ(flags.Parse(2, argv).code(), StatusCode::kInvalidArgument);
}

TEST(CliFlags, WellFormedNumbersAtTheBoundsParse) {
  CliFlags flags = MakeFlags();
  const char* argv[] = {"prog", "--count", "1000", "--ratio=1e-9"};
  ASSERT_TRUE(flags.Parse(4, argv).ok());
  EXPECT_EQ(flags.GetInt("count"), 1000);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 1e-9);
}

TEST(CliFlags, HelpMentionsEveryFlag) {
  CliFlags flags = MakeFlags();
  const std::string help = flags.Help("prog");
  for (const char* name : {"name", "count", "ratio", "verbose"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace graphsd
