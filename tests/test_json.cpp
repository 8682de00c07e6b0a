#include "fatomic/report/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fatomic/report/json_parse.hpp"

#include "fatomic/detect/experiment.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
namespace report = fatomic::report;

namespace {

class JsonTest : public ::testing::Test {
 protected:
  static const detect::Campaign& campaign() {
    static detect::Campaign c = [] {
      detect::Experiment exp(synthetic::workload);
      return exp.run();
    }();
    return c;
  }
  void TearDown() override {
    fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
  }

  /// Minimal structural validation: balanced braces/brackets outside
  /// strings, no trailing garbage.
  static bool balanced(const std::string& json) {
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : json) {
      if (escaped) {
        escaped = false;
        continue;
      }
      if (in_string) {
        if (c == '\\')
          escaped = true;
        else if (c == '"')
          in_string = false;
        continue;
      }
      switch (c) {
        case '"':
          in_string = true;
          break;
        case '{':
        case '[':
          ++depth;
          break;
        case '}':
        case ']':
          if (--depth < 0) return false;
          break;
        default:
          break;
      }
    }
    return depth == 0 && !in_string;
  }
};

}  // namespace

TEST_F(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(report::json_escape("plain"), "plain");
  EXPECT_EQ(report::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(report::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(report::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(report::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(report::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST_F(JsonTest, ClassificationJsonIsWellFormed) {
  auto cls = detect::classify(campaign());
  std::string json = report::classification_json(cls);
  EXPECT_TRUE(balanced(json)) << json;
  EXPECT_NE(json.find("\"methods\":["), std::string::npos);
  EXPECT_NE(json.find("\"classes\":["), std::string::npos);
  EXPECT_NE(json.find("synthetic::Account::nonatomic_update"),
            std::string::npos);
  EXPECT_NE(json.find("\"classification\":\"pure\""), std::string::npos);
  EXPECT_NE(json.find("\"classification\":\"conditional\""),
            std::string::npos);
  EXPECT_NE(json.find("\"classification\":\"atomic\""), std::string::npos);
}

TEST_F(JsonTest, ClassificationJsonHasOneEntryPerMethod) {
  auto cls = detect::classify(campaign());
  std::string json = report::classification_json(cls);
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"name\":"); pos != std::string::npos;
       pos = json.find("\"name\":", pos + 1))
    ++count;
  EXPECT_EQ(count, cls.methods.size() + cls.classes.size());
}

TEST_F(JsonTest, CampaignJsonIsWellFormed) {
  std::string json = report::campaign_json(campaign());
  EXPECT_TRUE(balanced(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"injections\":"), std::string::npos);
  EXPECT_NE(json.find("\"details\":["), std::string::npos);
  EXPECT_NE(json.find("\"site\":"), std::string::npos);
  EXPECT_NE(json.find("fatomic::InjectedRuntimeError"), std::string::npos);
}

TEST_F(JsonTest, CampaignJsonCountsMatch) {
  std::string json = report::campaign_json(campaign());
  const std::string runs_tag = "{\"schema_version\":2,\"runs\":" +
                               std::to_string(campaign().runs.size());
  EXPECT_EQ(json.rfind(runs_tag, 0), 0u)
      << "must lead with the schema version and run count";
  std::size_t detail_objects = 0;
  for (std::size_t pos = json.find("\"point\":"); pos != std::string::npos;
       pos = json.find("\"point\":", pos + 1))
    ++detail_objects;
  EXPECT_EQ(detail_objects, campaign().runs.size());
}

TEST_F(JsonTest, EmptyStructuresSerialize) {
  detect::Classification empty_cls;
  EXPECT_EQ(report::classification_json(empty_cls),
            "{\"methods\":[],\"classes\":[]}");
  detect::Campaign empty;
  std::string json = report::campaign_json(empty);
  EXPECT_TRUE(balanced(json));
  EXPECT_NE(json.find("\"runs\":0"), std::string::npos);
}

TEST(JsonParse, NestingDeeperThan256LevelsIsAParseError) {
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_NO_THROW(report::json_parse(nested(256)));
  EXPECT_THROW(report::json_parse(nested(257)), std::runtime_error);
  // One recursion per level: without the cap this overflows the stack.
  EXPECT_THROW(report::json_parse(nested(100000)), std::runtime_error);
}
