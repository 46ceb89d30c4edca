#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/wire.h"

namespace subrec {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(Status, EveryCodeHasName) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
}

Status FailsThenPropagates() {
  SUBREC_RETURN_NOT_OK(Status::NotFound("missing"));
  return Status::Ok();
}

TEST(Status, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kNotFound);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.NextUint64() == b.NextUint64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBound) {
  Rng rng(4);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformInt(bound), bound);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(6);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double total = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) total += rng.Poisson(mean);
    EXPECT_NEAR(total / n, mean, mean * 0.1 + 0.1);
  }
}

TEST(Rng, GammaMeanMatches) {
  Rng rng(8);
  const double shape = 1.6, scale = 0.45;
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.Gamma(shape, scale);
  EXPECT_NEAR(total / n, shape * scale, 0.03);
}

TEST(Rng, GammaSupportsShapeBelowOne) {
  Rng rng(81);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gamma(0.5, 2.0);
    EXPECT_GE(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total / n, 1.0, 0.06);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(9);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    auto sample = rng.SampleWithoutReplacement(30, 12);
    std::set<size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 12u);
    for (size_t v : sample) EXPECT_LT(v, 30u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(11);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(13);
  Rng fork1 = a.Fork();
  Rng b(13);
  Rng fork2 = b.Fork();
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(fork1.NextUint64(), fork2.NextUint64());
}

TEST(StringUtil, SplitDropsEmpty) {
  auto parts = SplitString("a,,b, c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("MiXeD 123"), "mixed 123");
}

TEST(StringUtil, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(Wire, BulkArraysMatchTheElementwiseEncoding) {
  const std::vector<int32_t> ints = {0, -1, 7, std::numeric_limits<int32_t>::min(),
                                     0x12345678};
  const std::vector<double> doubles = {0.0, -0.0, 1.5, -3.25e-300,
                                       std::numeric_limits<double>::infinity()};
  std::string elementwise;
  for (int32_t v : ints) wire::AppendI32(&elementwise, v);
  for (double v : doubles)
    wire::AppendU64(&elementwise, std::bit_cast<uint64_t>(v));
  std::string bulk;
  wire::AppendArray(&bulk, ints.data(), ints.size());
  wire::AppendArray(&bulk, doubles.data(), doubles.size());
  wire::AppendArray(&bulk, static_cast<const double*>(nullptr), 0);
  EXPECT_EQ(bulk, elementwise);

  wire::Cursor c(bulk);
  std::vector<int32_t> ints_back(ints.size());
  std::vector<double> doubles_back(doubles.size());
  ASSERT_TRUE(c.ReadArray(ints_back.data(), ints_back.size()).ok());
  ASSERT_TRUE(c.ReadArray(static_cast<double*>(nullptr), 0).ok());
  ASSERT_TRUE(c.ReadArray(doubles_back.data(), doubles_back.size()).ok());
  EXPECT_EQ(ints_back, ints);
  for (size_t i = 0; i < doubles.size(); ++i)
    EXPECT_EQ(std::bit_cast<uint64_t>(doubles_back[i]),
              std::bit_cast<uint64_t>(doubles[i]));
  EXPECT_EQ(c.remaining(), 0u);
}

TEST(Wire, ReadArrayChecksTheWholeArrayBeforeCopying) {
  const std::string bytes(12, '\x5A');
  wire::Cursor c(bytes);
  std::vector<int32_t> out(4, -1);
  // One element too many: nothing is copied and the cursor stays put.
  EXPECT_EQ(c.ReadArray(out.data(), 4).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(out, std::vector<int32_t>(4, -1));
  EXPECT_EQ(c.remaining(), 12u);
  // Counts whose byte size would wrap 64 bits are rejected, not wrapped.
  EXPECT_EQ(c.ReadArray(out.data(), (uint64_t{1} << 62) + 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(c.ReadArray(out.data(), 3).ok());
  EXPECT_EQ(c.remaining(), 0u);
}

TEST(StringUtil, Fnv1aStableAndDistinct) {
  EXPECT_EQ(Fnv1aHash("hello"), Fnv1aHash("hello"));
  EXPECT_NE(Fnv1aHash("hello"), Fnv1aHash("hellp"));
  // Known FNV-1a 64-bit offset basis for the empty string.
  EXPECT_EQ(Fnv1aHash(""), 0xcbf29ce484222325ULL);
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace subrec
