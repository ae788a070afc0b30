// Shared test fixtures and helpers.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/edge_list.hpp"
#include "io/device.hpp"
#include "partition/grid_builder.hpp"
#include "partition/grid_dataset.hpp"
#include "util/status.hpp"

namespace graphsd::testing {

/// Creates (and on teardown removes) a unique scratch directory.
class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/graphsd_test_XXXXXX";
    char* made = ::mkdtemp(templ);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() { (void)io::RemoveTree(path_); }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const noexcept { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Asserts a Status is OK with a useful message.
#define ASSERT_OK(expr)                                              \
  do {                                                               \
    const ::graphsd::Status status_ = (expr);                        \
    ASSERT_TRUE(status_.ok()) << status_.ToString();                 \
  } while (0)

#define EXPECT_OK(expr)                                              \
  do {                                                               \
    const ::graphsd::Status status_ = (expr);                        \
    EXPECT_TRUE(status_.ok()) << status_.ToString();                 \
  } while (0)

/// A dataset's out-degrees as a vector, for comparisons with diagnostics.
inline std::vector<std::uint32_t> Degrees(const partition::GridDataset& ds) {
  return {ds.out_degrees().begin(), ds.out_degrees().end()};
}

/// Unwraps a Result<T> or fails the test.
template <typename T>
T ValueOrDie(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Builds a grid dataset for `list` in `dir` with `p` intervals using a
/// zero-cost accounting device (tests that need modeled time make their
/// own).
inline partition::GridManifest BuildTestGrid(const EdgeList& list,
                                             io::Device& device,
                                             const std::string& dir,
                                             std::uint32_t p,
                                             const std::string& name = "test",
                                             const std::string& codec = "none") {
  partition::GridBuildOptions options;
  options.num_intervals = p;
  options.name = name;
  options.codec = codec;
  return ValueOrDie(partition::BuildGrid(list, device, dir, options));
}

}  // namespace graphsd::testing
