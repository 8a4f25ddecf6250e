#include "util/string_util.h"

#include <gtest/gtest.h>

namespace ctdb {
namespace {

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi\r\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"x"}, ", "), "x");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(StringUtilTest, ParseUint64RejectsOverflowAndNonDigits) {
  uint64_t value = 0;
  ASSERT_TRUE(ParseUint64("000042", &value));
  EXPECT_EQ(value, 42u);
  ASSERT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  value = 7;
  EXPECT_FALSE(ParseUint64("18446744073709551616", &value));
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("-1", &value));
  EXPECT_FALSE(ParseUint64("+1", &value));
  EXPECT_FALSE(ParseUint64(" 1", &value));
  EXPECT_FALSE(ParseUint64("1x", &value));
  EXPECT_EQ(value, 7u);
}

TEST(StringUtilTest, ParseUnsignedRejectsWhatDoesNotFitTheType) {
  uint16_t port = 7;
  ASSERT_TRUE(ParseUnsigned("65535", &port));
  EXPECT_EQ(port, 65535u);
  port = 7;
  EXPECT_FALSE(ParseUnsigned("65536", &port));
  EXPECT_FALSE(ParseUnsigned("70000", &port));
  EXPECT_FALSE(ParseUnsigned("-1", &port));
  EXPECT_FALSE(ParseUnsigned("x", &port));
  EXPECT_EQ(port, 7u);
  size_t threads = 0;
  ASSERT_TRUE(ParseUnsigned("18446744073709551615", &threads));
  EXPECT_EQ(threads, SIZE_MAX);
}

TEST(StringUtilTest, StringFormat) {
  EXPECT_EQ(StringFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringFormat("plain"), "plain");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

}  // namespace
}  // namespace ctdb
