#include "core/slot.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace graphsd::core {
namespace {

TEST(Slot, DoubleRoundTrip) {
  for (double v : {0.0, 1.0, -3.5, 1e-300, std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(SlotToDouble(SlotFromDouble(v)), v);
  }
}

TEST(SlotCombine, MinDoubleLowersAndReports) {
  Slot slot = SlotFromDouble(10.0);
  EXPECT_TRUE(MinDouble(slot, 5.0));
  EXPECT_EQ(SlotToDouble(slot), 5.0);
  EXPECT_FALSE(MinDouble(slot, 7.0));
  EXPECT_EQ(SlotToDouble(slot), 5.0);
  EXPECT_FALSE(MinDouble(slot, 5.0));  // equal is not a lowering
}

TEST(SlotCombine, MinDoubleHandlesInfinity) {
  Slot slot = SlotFromDouble(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(MinDouble(slot, 1e308));
  EXPECT_EQ(SlotToDouble(slot), 1e308);
}

TEST(SlotCombine, MaxDoubleRaisesAndReports) {
  Slot slot = SlotFromDouble(0.0);
  EXPECT_TRUE(MaxDouble(slot, 3.0));
  EXPECT_EQ(SlotToDouble(slot), 3.0);
  EXPECT_FALSE(MaxDouble(slot, 2.0));
  EXPECT_FALSE(MaxDouble(slot, 3.0));  // equal is not a rise
  EXPECT_EQ(SlotToDouble(slot), 3.0);
}

TEST(SlotCombine, MinU64LowersAndReports) {
  Slot slot = 100;
  EXPECT_TRUE(MinU64(slot, 7));
  EXPECT_EQ(slot, 7u);
  EXPECT_FALSE(MinU64(slot, 9));
  EXPECT_FALSE(MinU64(slot, 7));
}

TEST(SlotCombine, AddDoubleReturnsNewValue) {
  Slot slot = SlotFromDouble(1.5);
  EXPECT_DOUBLE_EQ(AddDouble(slot, 2.5), 4.0);
  EXPECT_DOUBLE_EQ(SlotToDouble(slot), 4.0);
}

}  // namespace
}  // namespace graphsd::core
