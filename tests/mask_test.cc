// Unit tests for the data model: Mask, ROI, ValueRange (§2.1).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "masksearch/storage/mask.h"
#include "test_util.h"

namespace masksearch {
namespace {

TEST(RoiTest, GeometryBasics) {
  ROI r(2, 3, 10, 7);
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.Area(), 32);
  EXPECT_FALSE(r.Empty());
  EXPECT_TRUE(ROI(5, 5, 5, 9).Empty());
  EXPECT_TRUE(ROI().Empty());
}

TEST(RoiTest, InclusiveCornerConversionMatchesPaperConvention) {
  // Paper Figure 3-style box ((1,1),(4,4)) covers 16 pixels.
  ROI r = ROI::FromInclusiveCorners(1, 1, 4, 4);
  EXPECT_EQ(r, ROI(0, 0, 4, 4));
  EXPECT_EQ(r.Area(), 16);
}

TEST(RoiTest, IntersectAndContains) {
  ROI a(0, 0, 10, 10);
  ROI b(5, 5, 15, 15);
  EXPECT_EQ(a.Intersect(b), ROI(5, 5, 10, 10));
  EXPECT_TRUE(a.Intersect(ROI(20, 20, 30, 30)).Empty());
  EXPECT_TRUE(a.Contains(ROI(1, 1, 9, 9)));
  EXPECT_FALSE(a.Contains(b));
  EXPECT_TRUE(a.ContainsPoint(0, 0));
  EXPECT_FALSE(a.ContainsPoint(10, 0));  // exclusive edge
}

TEST(RoiTest, ClampTo) {
  ROI r(-5, -5, 100, 100);
  EXPECT_EQ(r.ClampTo(10, 20), ROI(0, 0, 10, 20));
  EXPECT_TRUE(ROI(50, 50, 60, 60).ClampTo(10, 10).Empty());
}

TEST(ValueRangeTest, HalfOpenSemantics) {
  ValueRange r(0.2, 0.8);
  EXPECT_TRUE(r.Contains(0.2));
  EXPECT_TRUE(r.Contains(0.5));
  EXPECT_FALSE(r.Contains(0.8));
  EXPECT_FALSE(r.Contains(0.1));
  EXPECT_TRUE(r.Valid());
  EXPECT_FALSE(ValueRange(0.9, 0.1).Valid());
}

TEST(MaskTest, ZeroInitialized) {
  Mask m(4, 3);
  EXPECT_EQ(m.width(), 4);
  EXPECT_EQ(m.height(), 3);
  EXPECT_EQ(m.NumPixels(), 12);
  for (int32_t y = 0; y < 3; ++y) {
    for (int32_t x = 0; x < 4; ++x) {
      EXPECT_EQ(m.at(x, y), 0.0f);
    }
  }
}

TEST(MaskTest, SetGetRowMajor) {
  Mask m(3, 2);
  m.set(2, 1, 0.5f);
  EXPECT_EQ(m.at(2, 1), 0.5f);
  EXPECT_EQ(m.data()[1 * 3 + 2], 0.5f);
  EXPECT_EQ(m.row(1)[2], 0.5f);
}

TEST(MaskTest, FromDataValidatesShape) {
  EXPECT_TRUE(Mask::FromData(2, 2, {0.1f, 0.2f, 0.3f}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Mask::FromData(0, 2, {}).status().IsInvalidArgument());
  EXPECT_TRUE(Mask::FromData(-1, 2, {}).status().IsInvalidArgument());
}

TEST(MaskTest, FromDataValidatesDomain) {
  EXPECT_TRUE(Mask::FromData(2, 1, {0.1f, 1.0f}).status().IsInvalidArgument());
  EXPECT_TRUE(Mask::FromData(2, 1, {-0.1f, 0.5f}).status().IsInvalidArgument());
  auto ok = Mask::FromData(2, 1, {0.0f, 0.999f});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->at(1, 0), 0.999f);
}

TEST(MaskTest, FromDataNamesFirstOutOfDomainPixel) {
  // 13 x 3 = 39 pixels: four full 8-lane blocks plus a 7-pixel tail (32..38).
  const int32_t w = 13;
  const int32_t h = 3;
  struct Bad {
    float value;
    const char* text;
  };
  const Bad bads[] = {{std::nanf(""), "nan"},
                      {1.0f, "1.000000"},
                      {-0.25f, "-0.250000"},
                      {std::numeric_limits<float>::infinity(), "inf"}};
  for (const Bad& bad : bads) {
    for (size_t pos : {size_t{0}, size_t{7}, size_t{19}, size_t{33},
                       size_t{38}}) {
      std::vector<float> data(static_cast<size_t>(w) * h, 0.5f);
      data[pos] = bad.value;
      auto r = Mask::FromData(w, h, std::move(data));
      ASSERT_TRUE(r.status().IsInvalidArgument()) << "pixel " << pos;
      EXPECT_EQ(r.status().message(),
                std::string("mask pixel value ") + bad.text + " outside [0, 1)")
          << "pixel " << pos;
    }
  }
  // With several bad pixels, the first in row-major order is named.
  std::vector<float> data(static_cast<size_t>(w) * h, 0.0f);
  data[35] = -1.0f;
  data[20] = 2.0f;
  EXPECT_EQ(Mask::FromData(w, h, std::move(data)).status().message(),
            "mask pixel value 2.000000 outside [0, 1)");
  // Domain edges: 0 and the largest float below 1 are accepted everywhere.
  std::vector<float> edges(static_cast<size_t>(w) * h);
  for (size_t i = 0; i < edges.size(); ++i) {
    edges[i] = i % 2 ? std::nextafter(1.0f, 0.0f) : 0.0f;
  }
  edges[38] = -0.0f;  // compares equal to 0
  EXPECT_TRUE(Mask::FromData(w, h, std::move(edges)).ok());
}

TEST(MaskTest, ClampToDomain) {
  Mask m(2, 2);
  m.set(0, 0, 1.5f);
  m.set(1, 0, -0.25f);
  m.set(0, 1, std::nanf(""));
  m.set(1, 1, 0.5f);
  m.ClampToDomain();
  EXPECT_LT(m.at(0, 0), 1.0f);
  EXPECT_GE(m.at(0, 0), 0.999f);
  EXPECT_EQ(m.at(1, 0), 0.0f);
  EXPECT_EQ(m.at(0, 1), 0.0f);
  EXPECT_EQ(m.at(1, 1), 0.5f);
}

TEST(MaskTest, ByteSizeAndExtent) {
  Mask m(10, 5);
  EXPECT_EQ(m.ByteSize(), 10u * 5u * sizeof(float));
  EXPECT_EQ(m.Extent(), ROI(0, 0, 10, 5));
}

TEST(MaskMetaTest, ToStringMentionsIds) {
  MaskMeta meta;
  meta.mask_id = 6;
  meta.image_id = 4;
  meta.model_id = 2;
  const std::string s = meta.ToString();
  EXPECT_NE(s.find("mask_id=6"), std::string::npos);
  EXPECT_NE(s.find("image_id=4"), std::string::npos);
}

TEST(MaskTypeTest, Names) {
  EXPECT_STREQ(MaskTypeToString(MaskType::kSaliencyMap), "saliency_map");
  EXPECT_STREQ(MaskTypeToString(MaskType::kSegmentation), "segmentation");
  EXPECT_STREQ(MaskTypeToString(MaskType::kDerived), "derived");
}

}  // namespace
}  // namespace masksearch
