#include "core/fingerprint.h"

#include <array>
#include <cstring>

#include <gtest/gtest.h>

#include "analysis/components.h"
#include "analysis/reciprocity.h"
#include "gen/generators.h"
#include "gen/verified_network.h"
#include "util/rng.h"

namespace elitenet {
namespace core {
namespace {

TEST(FingerprintTest, RejectsEmptyGraph) {
  EXPECT_FALSE(ComputeFingerprint(graph::DiGraph()).ok());
}

TEST(FingerprintTest, PaperFingerprintMatchesConstants) {
  const GraphFingerprint fp = PaperFingerprint();
  EXPECT_DOUBLE_EQ(fp.reciprocity, 0.337);
  EXPECT_DOUBLE_EQ(fp.clustering, 0.1583);
  EXPECT_DOUBLE_EQ(fp.powerlaw_alpha, 3.24);
  EXPECT_NEAR(fp.attracting_fraction, 6091.0 / 231246.0, 1e-9);
}

TEST(FingerprintTest, SelfSimilarityIsOne) {
  const GraphFingerprint fp = PaperFingerprint();
  EXPECT_DOUBLE_EQ(FingerprintSimilarity(fp, fp), 1.0);
}

TEST(FingerprintTest, SimilarityIsSymmetric) {
  util::Rng rng(3);
  auto er = gen::ErdosRenyi(3000, 30000, &rng);
  ASSERT_TRUE(er.ok());
  auto fp = ComputeFingerprint(*er);
  ASSERT_TRUE(fp.ok());
  const GraphFingerprint paper = PaperFingerprint();
  EXPECT_DOUBLE_EQ(FingerprintSimilarity(*fp, paper),
                   FingerprintSimilarity(paper, *fp));
}

TEST(FingerprintTest, VerifiedNetworkScoresAbovePlainGenerators) {
  // The headline fingerprint claim: the calibrated generator is closer
  // to the paper's signature than ER / BA / WS graphs of similar size.
  gen::VerifiedNetworkConfig vcfg;
  vcfg.num_users = 6000;
  auto verified = gen::GenerateVerifiedNetwork(vcfg);
  ASSERT_TRUE(verified.ok());
  auto fp_verified = ComputeFingerprint(verified->graph);
  ASSERT_TRUE(fp_verified.ok());

  const GraphFingerprint paper = PaperFingerprint();
  const double s_verified = FingerprintSimilarity(*fp_verified, paper);
  EXPECT_GT(s_verified, 0.8);

  util::Rng rng(7);
  const uint64_t m = verified->graph.num_edges();
  auto er = gen::ErdosRenyi(6000, m, &rng);
  ASSERT_TRUE(er.ok());
  auto fp_er = ComputeFingerprint(*er);
  ASSERT_TRUE(fp_er.ok());
  EXPECT_GT(s_verified, FingerprintSimilarity(*fp_er, paper) + 0.1);

  auto ba = gen::PreferentialAttachment(6000, 50, &rng);
  ASSERT_TRUE(ba.ok());
  auto fp_ba = ComputeFingerprint(*ba);
  ASSERT_TRUE(fp_ba.ok());
  EXPECT_GT(s_verified, FingerprintSimilarity(*fp_ba, paper));

  auto ws = gen::WattsStrogatz(6000, 25, 0.1, &rng);
  ASSERT_TRUE(ws.ok());
  auto fp_ws = ComputeFingerprint(*ws);
  ASSERT_TRUE(fp_ws.ok());
  EXPECT_GT(s_verified, FingerprintSimilarity(*fp_ws, paper));
}

// The form that takes a precomputed SCC labelling and reciprocity rate
// (the serving warm build's) draws the same random numbers in the same
// order, so every component matches the self-contained form bit for bit.
TEST(FingerprintTest, PrecomputedSccAndReciprocityGiveTheSameBits) {
  gen::VerifiedNetworkConfig vcfg;
  vcfg.num_users = 3000;
  auto verified = gen::GenerateVerifiedNetwork(vcfg);
  ASSERT_TRUE(verified.ok());
  const graph::DiGraph& g = verified->graph;
  auto whole = ComputeFingerprint(g);
  auto reused = ComputeFingerprint(g, analysis::StronglyConnectedComponents(g),
                                   analysis::ComputeReciprocity(g).rate);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(reused.ok());
  const auto fields = [](const GraphFingerprint& f) {
    return std::array<double, 8>{f.density,          f.reciprocity,
                                 f.clustering,       f.assortativity,
                                 f.giant_scc_fraction, f.mean_distance,
                                 f.powerlaw_alpha,   f.attracting_fraction};
  };
  const std::array<double, 8> a = fields(*whole);
  const std::array<double, 8> b = fields(*reused);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(a)), 0)
      << whole->ToString() << "\n" << reused->ToString();
}

TEST(FingerprintTest, ToStringNamesComponents) {
  const std::string s = PaperFingerprint().ToString();
  EXPECT_NE(s.find("recip=0.337"), std::string::npos);
  EXPECT_NE(s.find("alpha=3.24"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace elitenet
