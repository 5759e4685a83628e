// parse_env_int is the single parser behind every OCD_* integer knob
// (OCD_JOBS, OCD_SHARDS, OCD_SHARD_CHECKPOINT_INTERVAL), so its
// acceptance/rejection behaviour — and the exact error wording — is
// pinned once here instead of per caller.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "ocd/util/env.hpp"
#include "ocd/util/error.hpp"

namespace ocd::util {
namespace {

struct EnvCase {
  const char* text;
  std::int64_t expected;  ///< -1 = must throw
};

// Without a printer gtest dumps the struct's bytes — including the
// address of `text` — into the test name, so the name would change from
// build to build.
void PrintTo(const EnvCase& c, std::ostream* os) {
  if (c.text == nullptr) {
    *os << "null";
  } else {
    *os << '"' << c.text << '"';
  }
  if (c.expected >= 0) {
    *os << " accepted as " << c.expected;
  } else {
    *os << " rejected";
  }
}

class ParseEnvIntTest : public ::testing::TestWithParam<EnvCase> {};

TEST_P(ParseEnvIntTest, ParsesOrRejectsWithSharedWording) {
  const EnvCase& c = GetParam();
  if (c.expected >= 0) {
    EXPECT_EQ(parse_env_int("OCD_TEST_KNOB", c.text), c.expected);
    return;
  }
  try {
    parse_env_int("OCD_TEST_KNOB", c.text);
    FAIL() << "expected rejection of '" << (c.text ? c.text : "(null)")
           << "'";
  } catch (const Error& e) {
    const std::string expected =
        std::string("OCD_TEST_KNOB must be a positive integer, got '") +
        (c.text == nullptr ? "" : c.text) + "'";
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobShapes, ParseEnvIntTest,
    ::testing::Values(EnvCase{"1", 1}, EnvCase{"8", 8},
                      EnvCase{"2147483647", 2147483647},
                      // rejected: the shared wording cases
                      EnvCase{nullptr, -1}, EnvCase{"", -1},
                      EnvCase{"0", -1}, EnvCase{"-3", -1},
                      EnvCase{"four", -1}, EnvCase{"4x", -1},
                      EnvCase{" 4", -1}, EnvCase{"4 ", -1},
                      EnvCase{"3.5", -1}, EnvCase{"0x10", -1},
                      EnvCase{"2147483648", -1},  // above the i32 cap
                      EnvCase{"99999999999999999999", -1}));

TEST(ParseEnvInt, HonorsACustomCap) {
  EXPECT_EQ(parse_env_int("OCD_TEST_KNOB", "64", 64), 64);
  EXPECT_THROW(parse_env_int("OCD_TEST_KNOB", "65", 64), Error);
}

// parse_env_nonneg_int shares the bare-digit contract but admits 0
// (OCD_SHARD_BALANCE_EPS: zero = exact band, not misconfiguration).
TEST(ParseEnvNonnegInt, AdmitsZeroAndSharesTheContract) {
  EXPECT_EQ(parse_env_nonneg_int("OCD_TEST_KNOB", "0"), 0);
  EXPECT_EQ(parse_env_nonneg_int("OCD_TEST_KNOB", "8"), 8);
  EXPECT_EQ(parse_env_nonneg_int("OCD_TEST_KNOB", "100", 100), 100);
  for (const char* bad : {"", "-1", "four", "4x", " 4", "4 ", "3.5",
                          "0x10", "101"}) {
    try {
      parse_env_nonneg_int("OCD_TEST_KNOB", bad, 100);
      FAIL() << "expected rejection of '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(
                    "OCD_TEST_KNOB must be a non-negative integer, got '") +
                    bad + "'");
    }
  }
  EXPECT_THROW(parse_env_nonneg_int("OCD_TEST_KNOB", nullptr), Error);
}

}  // namespace
}  // namespace ocd::util
