#include "imaging/image.hpp"

#include <gtest/gtest.h>

namespace bees::img {
namespace {

TEST(Image, ConstructionAllocatesZeroed) {
  Image im(4, 3, 3);
  EXPECT_EQ(im.width(), 4);
  EXPECT_EQ(im.height(), 3);
  EXPECT_EQ(im.channels(), 3);
  EXPECT_EQ(im.byte_size(), 36u);
  EXPECT_EQ(im.pixel_count(), 12u);
  for (const auto v : im.data()) EXPECT_EQ(v, 0);
}

TEST(Image, RejectsBadShapes) {
  EXPECT_THROW(Image(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Image(1, -1, 1), std::invalid_argument);
  EXPECT_THROW(Image(1, 1, 2), std::invalid_argument);
  EXPECT_THROW(Image(1, 1, 4), std::invalid_argument);
}

TEST(Image, SetAndGetPerChannel) {
  Image im(2, 2, 3);
  im.set(1, 0, 200, 2);
  EXPECT_EQ(im.at(1, 0, 2), 200);
  EXPECT_EQ(im.at(1, 0, 0), 0);
}

TEST(Image, ClampedAccessReplicatesBorder) {
  Image im(2, 2, 1);
  im.set(0, 0, 10);
  im.set(1, 1, 40);
  EXPECT_EQ(im.at_clamped(-5, -5), 10);
  EXPECT_EQ(im.at_clamped(7, 9), 40);
}

TEST(Image, FillSetsAllBytes) {
  Image im(3, 3, 1);
  im.fill(77);
  for (const auto v : im.data()) EXPECT_EQ(v, 77);
}

TEST(Image, SameShapeAndEquality) {
  Image a(2, 2, 1), b(2, 2, 1), c(2, 3, 1);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
  EXPECT_EQ(a, b);
  b.set(0, 0, 1);
  EXPECT_NE(a, b);
}

TEST(Image, DefaultIsEmpty) {
  Image im;
  EXPECT_TRUE(im.empty());
  EXPECT_EQ(im.pixel_count(), 0u);
}

}  // namespace
}  // namespace bees::img
