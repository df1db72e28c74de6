#include "util/string_utils.h"

#include <gtest/gtest.h>

namespace elitenet {
namespace util {
namespace {

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, SingleField) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitWhitespaceTest, DropsEmptyTokens) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StripTest, RemovesBothEnds) {
  EXPECT_EQ(StripAsciiWhitespace("  x  "), "x");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
  EXPECT_EQ(StripAsciiWhitespace("\t\n"), "");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
}

TEST(AsciiToLowerTest, LowersOnlyAscii) {
  EXPECT_EQ(AsciiToLower("AbC123"), "abc123");
  EXPECT_EQ(AsciiToLower(""), "");
}

TEST(StartsEndsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("official twitter", "official"));
  EXPECT_FALSE(StartsWith("off", "official"));
  EXPECT_TRUE(EndsWith("a.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(JoinTest, SeparatorBetweenElements) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(ParseUint64Test, ValidNumbers) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("79213811", &v));
  EXPECT_EQ(v, 79213811u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(PathPartsTest, SplitsAtTheLastSlash) {
  EXPECT_EQ(DirName("a/b/c.eng2"), "a/b");
  EXPECT_EQ(BaseName("a/b/c.eng2"), "c.eng2");
  EXPECT_EQ(DirName("c.eng2"), ".");
  EXPECT_EQ(BaseName("c.eng2"), "c.eng2");
  EXPECT_EQ(DirName("/c"), "/");
  EXPECT_EQ(BaseName("/c"), "c");
}

TEST(ParseUint64Test, RejectsBadInput) {
  uint64_t v = 0;
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64(" 12", &v));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
}

TEST(ParseDoubleTest, ValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.14", &v));
  EXPECT_DOUBLE_EQ(v, 3.14);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
}

TEST(ParseDoubleTest, RejectsTrailingGarbageAndEmpty) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1.5abc", &v));
}

}  // namespace
}  // namespace util
}  // namespace elitenet
