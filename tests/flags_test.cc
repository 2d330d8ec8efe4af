#include "base/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace iqlkit {
namespace {

// The message of a rejected flag, which must name the flag and its value.
template <typename T>
std::string Rejection(const Result<T>& parsed) {
  EXPECT_FALSE(parsed.ok());
  if (parsed.ok()) return "";
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  return parsed.status().message();
}

TEST(FlagsTest, AcceptsCompleteValuesInRange) {
  EXPECT_EQ(*ParseNumericFlag<uint16_t>("--port=0"), 0);
  EXPECT_EQ(*ParseNumericFlag<uint16_t>("--port=65535"), 65535);
  EXPECT_EQ(*ParseNumericFlag<uint64_t>("--seed=18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(*ParseNumericFlag<size_t>("--workers=8"), 8u);
  EXPECT_EQ(*ParseNumericFlag<uint32_t>("--threads=4294967295"),
            UINT32_MAX);
  EXPECT_EQ(*ParseNumericFlag<int>("--priority=-3"), -3);
  EXPECT_EQ(*ParseNumericFlag<int>("--priority=7"), 7);
  EXPECT_EQ(*ParseNumericFlag<double>("--timeout=0.05"), 0.05);
  EXPECT_EQ(*ParseNumericFlag<double>("--timeout=2"), 2.0);
  EXPECT_EQ(*ParseNumericFlag<double>("--retry-base=1e-3"), 1e-3);
}

TEST(FlagsTest, RejectsTrailingBytes) {
  std::string why = Rejection(ParseNumericFlag<uint16_t>("--port=12abc"));
  EXPECT_EQ(why, "--port: bad value \"12abc\": trailing characters after "
                 "the number");
  Rejection(ParseNumericFlag<uint64_t>("--max-steps=10 "));
  Rejection(ParseNumericFlag<int>("--priority=-1x"));
  Rejection(ParseNumericFlag<double>("--timeout=0.5s"));
  Rejection(ParseNumericFlag<double>("--timeout=1.5.2"));
}

TEST(FlagsTest, RejectsASignOnAnUnsignedFlag) {
  // std::stoull("-1") is 2^64-1; here it is an error.
  std::string why = Rejection(ParseNumericFlag<size_t>("--workers=-1"));
  EXPECT_EQ(why, "--workers: bad value \"-1\": expected an unsigned "
                 "number, without a sign");
  Rejection(ParseNumericFlag<uint64_t>("--max-memory=-0"));
  Rejection(ParseNumericFlag<uint16_t>("--port=+80"));
}

TEST(FlagsTest, RejectsValuesOutsideTheTypesRange) {
  // std::stoul + static_cast<uint16_t> turned 70000 into 4464.
  std::string why = Rejection(ParseNumericFlag<uint16_t>("--port=70000"));
  EXPECT_EQ(why, "--port: bad value \"70000\": out of range [0, 65535]");
  Rejection(ParseNumericFlag<uint16_t>("--port=65536"));
  Rejection(ParseNumericFlag<uint64_t>("--seed=18446744073709551616"));
  Rejection(ParseNumericFlag<uint32_t>("--threads=4294967296"));
  Rejection(ParseNumericFlag<int>("--priority=2147483648"));
  Rejection(ParseNumericFlag<int>("--priority=-2147483649"));
  Rejection(ParseNumericFlag<double>("--timeout=1e999"));
}

TEST(FlagsTest, RejectsValuesOutsideAnExplicitRange) {
  std::string why =
      Rejection(ParseNumericFlag<int>("--connect=0", 1, 65535));
  EXPECT_EQ(why, "--connect: bad value \"0\": out of range [1, 65535]");
  Rejection(ParseNumericFlag<int>("--connect=65536", 1, 65535));
  Rejection(ParseNumericFlag<int>("--connect=-1", 1, 65535));
  Rejection(ParseNumericFlag<int>("--max-retries=-1", 0));
  Rejection(ParseNumericFlag<double>("--timeout=-0.5", 0.0));
  EXPECT_EQ(*ParseNumericFlag<int>("--connect=1", 1, 65535), 1);
  EXPECT_EQ(*ParseNumericFlag<double>("--timeout=0", 0.0), 0.0);
}

TEST(FlagsTest, RejectsMissingAndNonNumericValues) {
  std::string why = Rejection(ParseNumericFlag<uint64_t>("--repeat="));
  EXPECT_EQ(why, "--repeat: bad value \"\": expected a number");
  Rejection(ParseNumericFlag<uint64_t>("--repeat"));
  Rejection(ParseNumericFlag<uint64_t>("--repeat=many"));
  Rejection(ParseNumericFlag<uint64_t>("--repeat= 3"));
  Rejection(ParseNumericFlag<uint64_t>("--repeat=0x10"));
  Rejection(ParseNumericFlag<int>("--priority=-"));
  Rejection(ParseNumericFlag<double>("--timeout=."));
}

TEST(FlagsTest, RejectsNonFiniteReals) {
  std::string why = Rejection(ParseNumericFlag<double>("--timeout=inf"));
  EXPECT_EQ(why, "--timeout: bad value \"inf\": expected a finite number");
  Rejection(ParseNumericFlag<double>("--timeout=nan"));
  Rejection(ParseNumericFlag<double>("--retry-base=-inf"));
}

TEST(FlagsTest, SetNumericFlagLeavesTheTargetAloneOnError) {
  uint16_t port = 7;
  EXPECT_FALSE(SetNumericFlag("--port=70000", &port).ok());
  EXPECT_EQ(port, 7);
  EXPECT_TRUE(SetNumericFlag("--port=8080", &port).ok());
  EXPECT_EQ(port, 8080);
  int retries = 2;
  EXPECT_FALSE(SetNumericFlag("--max-retries=-1", &retries, 0).ok());
  EXPECT_EQ(retries, 2);
}

}  // namespace
}  // namespace iqlkit
