#include "common/string_util.h"

#include "gtest/gtest.h"

namespace sgcl {
namespace {

TEST(StrFormatTest, FormatsNumbers) {
  EXPECT_EQ(StrFormat("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StrFormatTest, EmptyAndLongStrings) {
  EXPECT_EQ(StrFormat("%s", ""), "");
  std::string big(500, 'x');
  EXPECT_EQ(StrFormat("%s", big.c_str()), big);
}

TEST(StrSplitTest, SplitsKeepingEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x", ','), (std::vector<std::string>{"x"}));
}

}  // namespace
}  // namespace sgcl
