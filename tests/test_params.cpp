// Tests for parameter derivation (Theorem 10/13 constraint satisfaction),
// boundary values of the validation conditions (named-violation messages),
// and the geometric bin schema of §2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "core/bins.hpp"
#include "core/params.hpp"

namespace core = localspan::core;

namespace {

/// The std::invalid_argument raised by p.validate(), or "" if none.
std::string validation_message(const core::Params& p) {
  try {
    p.validate();
    return {};
  } catch (const std::invalid_argument& ex) {
    return ex.what();
  }
}

}  // namespace

class StrictParams : public ::testing::TestWithParam<double> {};

TEST_P(StrictParams, SatisfyEveryTheoremCondition) {
  const double eps = GetParam();
  const core::Params p = core::Params::strict_params(eps, 0.75);
  EXPECT_TRUE(p.satisfies_stretch_conditions()) << p.describe();
  EXPECT_TRUE(p.satisfies_weight_conditions()) << p.describe();
  // Spot-check the raw inequalities from the paper.
  EXPECT_GT(p.t1, 1.0);
  EXPECT_LT(p.t1, p.t);
  EXPECT_GT(p.delta, 0.0);
  EXPECT_LE(p.delta, (p.t - p.t1) / 4.0);
  EXPECT_LT(p.delta, (p.t - 1.0) / (6.0 + 2.0 * p.t));
  const double td = p.t1 * (1.0 - 2.0 * p.delta) / (1.0 + 6.0 * p.delta);
  EXPECT_NEAR(td, p.t_delta, 1e-12);
  EXPECT_GT(p.t_delta, 1.0);
  EXPECT_GT(p.r, 1.0);
  EXPECT_LT(p.r, (p.t_delta + 1.0) / 2.0);
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, StrictParams,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0));

class PracticalParams : public ::testing::TestWithParam<double> {};

TEST_P(PracticalParams, KeepStretchConditions) {
  const core::Params p = core::Params::practical_params(GetParam(), 0.75);
  EXPECT_TRUE(p.satisfies_stretch_conditions()) << p.describe();
  EXPECT_GT(p.r, core::Params::strict_params(GetParam(), 0.75).r);  // fewer bins
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, PracticalParams, ::testing::Values(0.1, 0.25, 0.5, 1.0, 2.0));

TEST(Params, RejectsBadInputs) {
  EXPECT_THROW(core::Params::strict_params(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(core::Params::strict_params(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(core::Params::strict_params(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(core::Params::strict_params(0.5, 1.5), std::invalid_argument);
}

TEST(Params, ValidateCatchesTampering) {
  core::Params p = core::Params::strict_params(0.5, 0.75);
  p.delta = 0.4;  // way past every bound
  EXPECT_THROW(p.validate(), std::invalid_argument);
  core::Params q = core::Params::strict_params(0.5, 0.75);
  q.t1 = q.t + 0.1;
  EXPECT_THROW(q.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Boundary values of the sufficient conditions. Registry- or caller-supplied
// parameter sets must fail loudly, with the violated condition named in the
// message (not just the parameter dump).
// ---------------------------------------------------------------------------

TEST(ParamsBoundaries, ThetaAtPiOverFourIsRejectedByName) {
  core::Params p = core::Params::strict_params(0.5, 0.75);
  p.theta = std::numbers::pi / 4.0;  // the Lemma 3 interval is open at pi/4
  EXPECT_FALSE(p.satisfies_stretch_conditions());
  const std::string msg = validation_message(p);
  EXPECT_NE(msg.find("theta"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Lemma 3"), std::string::npos) << msg;
}

TEST(ParamsBoundaries, ThetaAboveTheStretchBoundIsRejected) {
  core::Params p = core::Params::practical_params(0.5, 0.75);
  // cos(theta) - sin(theta) >= 1/t fails well before pi/4 for small t.
  p.theta = 0.999 * std::numbers::pi / 4.0;
  EXPECT_FALSE(p.satisfies_stretch_conditions());
  EXPECT_NE(validation_message(p).find("cos(theta) - sin(theta) >= 1/t"), std::string::npos);
}

TEST(ParamsBoundaries, DeltaAtTheTheorem13CeilingIsRejectedByName) {
  core::Params p = core::Params::strict_params(0.5, 0.75);
  const double ceiling = std::min((p.t - 1.0) / (6.0 + 2.0 * p.t), (p.t - p.t1) / 4.0);
  p.delta = ceiling;  // Theorem 13 requires strict inequality
  EXPECT_FALSE(p.satisfies_weight_conditions());
  const std::string msg = validation_message(p);
  EXPECT_NE(msg.find("delta"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Theorem 13"), std::string::npos) << msg;
}

TEST(ParamsBoundaries, DeltaAtTheStretchCeilingIsAccepted) {
  // The Theorem 10 bound delta <= (t - t1)/4 is inclusive: the practical
  // preset (no weight-side requirements) must accept the exact boundary.
  core::Params p = core::Params::practical_params(0.5, 0.75);
  p.delta = (p.t - p.t1) / 4.0;
  EXPECT_TRUE(p.satisfies_stretch_conditions());
  EXPECT_NO_THROW(p.validate());
}

TEST(ParamsBoundaries, T1ReachingTIsRejectedByName) {
  core::Params p = core::Params::practical_params(0.5, 0.75);
  p.t1 = p.t;  // 1 < t1 < t is open at t
  EXPECT_FALSE(p.satisfies_stretch_conditions());
  EXPECT_NE(validation_message(p).find("t1 < t"), std::string::npos);
}

TEST(ParamsBoundaries, T1ApproachingTStarvesDelta) {
  // As t1 -> t the delta budget (t - t1)/4 collapses below any fixed delta;
  // the violated condition must name the delta/t1 coupling.
  core::Params p = core::Params::practical_params(0.5, 0.75);
  p.t1 = p.t - 1e-12;
  EXPECT_FALSE(p.satisfies_stretch_conditions());
  EXPECT_NE(validation_message(p).find("delta <= (t - t1)/4"), std::string::npos);
}

TEST(ParamsBoundaries, EveryViolationIsListed) {
  core::Params p;  // default-constructed: t1 = delta = theta = r = 0
  const std::vector<std::string> violated = p.violated_conditions();
  EXPECT_GE(violated.size(), 4u);
  const std::string msg = validation_message(p);
  for (const std::string& v : violated) {
    EXPECT_NE(msg.find(v), std::string::npos) << "message misses: " << v;
  }
  EXPECT_TRUE(core::Params::strict_params(0.5, 0.75).violated_conditions().empty());
}

TEST(Params, DescribeMentionsMode) {
  EXPECT_NE(core::Params::strict_params(0.5, 0.75).describe().find("strict"), std::string::npos);
  EXPECT_NE(core::Params::practical_params(0.5, 0.75).describe().find("practical"),
            std::string::npos);
}

TEST(LogStar, KnownValues) {
  EXPECT_EQ(core::log_star(1.0), 0);
  EXPECT_EQ(core::log_star(2.0), 1);
  EXPECT_EQ(core::log_star(4.0), 2);
  EXPECT_EQ(core::log_star(16.0), 3);
  EXPECT_EQ(core::log_star(65536.0), 4);
  EXPECT_EQ(core::log_star(1e9), 5);
}

TEST(Bins, BoundariesAreExact) {
  const core::BinSchema schema(0.5, 2.0, 100);  // w0 = 0.005
  EXPECT_DOUBLE_EQ(schema.w0(), 0.005);
  EXPECT_EQ(schema.bin_of(0.005), 0);
  EXPECT_EQ(schema.bin_of(0.0049), 0);
  EXPECT_EQ(schema.bin_of(0.0051), 1);
  EXPECT_EQ(schema.bin_of(0.01), 1);    // W_1 = 0.01, I_1 = (0.005, 0.01]
  EXPECT_EQ(schema.bin_of(0.0101), 2);  // just over W_1
}

TEST(Bins, InvariantHoldsForRandomLengths) {
  const core::BinSchema schema(0.75, 1.07, 4096);
  for (int k = 1; k <= 2000; ++k) {
    const double len = k / 2000.0;
    const int b = schema.bin_of(len);
    ASSERT_GE(b, 0);
    if (b == 0) {
      EXPECT_LE(len, schema.w0());
    } else {
      EXPECT_GT(len, schema.W(b - 1)) << len;
      EXPECT_LE(len, schema.W(b)) << len;
    }
  }
}

TEST(Bins, MaxBinCoversUnitLengths) {
  for (double r : {1.02, 1.5, 2.0}) {
    for (int n : {10, 1000, 100000}) {
      const core::BinSchema schema(0.6, r, n);
      EXPECT_LE(schema.bin_of(1.0), schema.max_bin()) << "r=" << r << " n=" << n;
    }
  }
}

TEST(Bins, GrowLogarithmicallyWithN) {
  const core::BinSchema s1(0.75, 1.5, 1 << 8);
  const core::BinSchema s2(0.75, 1.5, 1 << 16);
  // m = ceil(log_r(n/alpha)): doubling the exponent roughly doubles m.
  EXPECT_NEAR(static_cast<double>(s2.max_bin()) / s1.max_bin(), 2.0, 0.35);
}

TEST(Bins, RejectsBadInputs) {
  EXPECT_THROW(core::BinSchema(0.5, 1.0, 100), std::invalid_argument);
  EXPECT_THROW(core::BinSchema(0.5, 2.0, 0), std::invalid_argument);
  EXPECT_THROW(core::BinSchema(1.5, 2.0, 100), std::invalid_argument);
  const core::BinSchema s(0.5, 2.0, 100);
  EXPECT_THROW(static_cast<void>(s.bin_of(0.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(s.W(-1)), std::invalid_argument);
}

TEST(Bins, WTableIsBitEqualToPowAndBinOfAgreesAtBoundaries) {
  // W(i) reads a table filled with the same pow expression it used to call
  // per lookup; bin_of must place W(i) in bin i and its successor in i + 1,
  // exactly as the pow-based search did.
  const auto reference_bin_of = [](double r, double w0, double len) {
    const auto w = [&](int k) { return std::pow(r, k) * w0; };
    if (len <= w0) return 0;
    int i = std::max(1, static_cast<int>(std::ceil(std::log(len / w0) / std::log(r))));
    while (i > 1 && w(i - 1) >= len) --i;
    while (w(i) < len) ++i;
    return i;
  };
  for (const double alpha : {0.5, 0.75, 1.0}) {
    for (const double r : {1.07, 1.5, 2.0, 3.3}) {
      for (const int n : {1, 64, 1000, 8192}) {
        const core::BinSchema schema(alpha, r, n);
        for (int i = 0; i <= schema.max_bin() + 3; ++i) {
          const double wi = std::pow(r, i) * (alpha / n);
          ASSERT_EQ(schema.W(i), wi) << alpha << " " << r << " " << n << " i=" << i;
          for (const double len : {wi, std::nextafter(wi, 0.0),
                                   std::nextafter(wi, std::numeric_limits<double>::infinity())}) {
            EXPECT_EQ(schema.bin_of(len), reference_bin_of(r, alpha / n, len))
                << alpha << " " << r << " " << n << " len=" << len;
          }
          EXPECT_EQ(schema.bin_of(wi), i);
        }
      }
    }
  }
}

TEST(Bins, GroupingPartitionsEdges) {
  const core::BinSchema schema(0.5, 1.3, 64);
  std::vector<localspan::graph::Edge> edges;
  std::vector<double> lens;
  for (int k = 1; k <= 50; ++k) {
    edges.push_back({0, k, k / 50.0});
    lens.push_back(k / 50.0);
  }
  const auto bins = core::group_edges_by_bin(edges, schema, lens);
  std::size_t total = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    for (const auto& e : bins[i]) {
      EXPECT_EQ(schema.bin_of(e.w), static_cast<int>(i));
    }
    total += bins[i].size();
  }
  EXPECT_EQ(total, edges.size());
  EXPECT_THROW(static_cast<void>(core::group_edges_by_bin(edges, schema, {})),
               std::invalid_argument);
}
