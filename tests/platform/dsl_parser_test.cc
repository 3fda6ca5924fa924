#include "platform/dsl_parser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace easeml::platform {
namespace {

TEST(DslParserTest, ParsesImageClassificationProgram) {
  auto p = ParseProgram(
      "{input: {[Tensor[256,256,3]], []}, output: {[Tensor[1000]], []}}");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->input.nonrec_fields.size(), 1u);
  EXPECT_EQ(p->input.nonrec_fields[0].shape.dims,
            (std::vector<int>{256, 256, 3}));
  EXPECT_TRUE(p->input.rec_fields.empty());
  EXPECT_EQ(p->output.nonrec_fields[0].shape.dims, (std::vector<int>{1000}));
}

TEST(DslParserTest, ParsesTimeSeriesProgramWithRecursiveFields) {
  auto p = ParseProgram(
      "{input: {[Tensor[10]], [next]}, output: {[Tensor[10]], [next]}}");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->input.rec_fields, (std::vector<std::string>{"next"}));
  EXPECT_EQ(p->output.rec_fields, (std::vector<std::string>{"next"}));
}

TEST(DslParserTest, ParsesNamedFields) {
  auto p = ParseProgram(
      "{input: {[img :: Tensor[28,28]], []}, output: {[Tensor[10]], []}}");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->input.nonrec_fields[0].name, "img");
  EXPECT_EQ(p->input.nonrec_fields[0].shape.dims, (std::vector<int>{28, 28}));
}

TEST(DslParserTest, ParsesMultipleFields) {
  auto dt = ParseDataType("{[Tensor[3], aux :: Tensor[7]], [left, right]}");
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  EXPECT_EQ(dt->nonrec_fields.size(), 2u);
  EXPECT_EQ(dt->nonrec_fields[1].name, "aux");
  EXPECT_EQ(dt->rec_fields, (std::vector<std::string>{"left", "right"}));
}

TEST(DslParserTest, WhitespaceInsensitive) {
  auto p = ParseProgram(
      "  {  input :\n {[ Tensor[ 4 , 4 ] ] , [ ] },\n"
      "  output : {[Tensor[2]],[]} } ");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->input.nonrec_fields[0].shape.dims, (std::vector<int>{4, 4}));
}

TEST(DslParserTest, RoundTripsThroughToString) {
  const std::string text =
      "{input: {[img :: Tensor[10]], [next]}, output: {[Tensor[10]], [next]}}";
  auto p = ParseProgram(text);
  ASSERT_TRUE(p.ok());
  auto p2 = ParseProgram(p->ToString());
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();
  EXPECT_EQ(*p, *p2);
}

struct BadInput {
  const char* text;
  const char* why;
};

class DslParserRejectionTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(DslParserRejectionTest, RejectsMalformedInput) {
  auto p = ParseProgram(GetParam().text);
  EXPECT_FALSE(p.ok()) << GetParam().why;
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, DslParserRejectionTest,
    ::testing::Values(
        BadInput{"{input: {[Tensor[3]], []}}", "missing output"},
        BadInput{"{output: {[Tensor[3]], []}, input: {[Tensor[3]], []}}",
                 "wrong key order"},
        BadInput{"{input: {[Tensor[]], []}, output: {[Tensor[3]], []}}",
                 "empty tensor dims"},
        BadInput{"{input: {[Tensor[3]], []}, output: {[Tensor[3]], []}} x",
                 "trailing characters"},
        BadInput{"{input: {[Tensor[3], []}, output: {[Tensor[3]], []}}",
                 "unbalanced brackets"},
        BadInput{"{input: {[Tensor[3]], [Next]}, output: {[Tensor[3]], []}}",
                 "uppercase field name"},
        BadInput{"{input: {[Tensor[-3]], []}, output: {[Tensor[3]], []}}",
                 "negative dimension"},
        BadInput{"{input: {[Tensor[9999999999]], []}, output: "
                 "{[Tensor[3]], []}}",
                 "dimension overflow"},
        BadInput{"{input: {[], []}, output: {[Tensor[3]], []}}",
                 "no fields on input"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      // Name tests after the rejection reason; the default printer would
      // hex-dump the struct (pointers included), making names unstable.
      std::string name = info.param.why;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Empty input is not in the table above: gtest lists each case with a hex
// dump of its BadInput, and this case's name is short enough that the
// listed name would include a byte of the "" literal's address, which moves
// with every change to the link layout.
TEST(DslParserTest, RejectsEmptyInput) {
  auto p = ParseProgram("");
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(DslParserTest, ErrorMessagesCarryOffset) {
  auto p = ParseProgram("{input: ???");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("offset"), std::string::npos);
}

}  // namespace
}  // namespace easeml::platform
