#include "core/dataset.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/study.h"

namespace elitenet {
namespace core {
namespace {

std::string TempDirFor(const char* name) {
  return testing::TempDir() + "/" + name;
}

StudyDataset SmallDataset() {
  StudyConfig cfg;
  cfg.network.num_users = 2000;
  VerifiedStudy study(cfg);
  EXPECT_TRUE(study.Generate().ok());
  StudyDataset d;
  d.network = study.network();
  d.profiles = study.profiles();
  d.bios = study.bios();
  d.activity = study.activity();
  return d;
}

TEST(DatasetTest, RoundTripPreservesEverything) {
  const StudyDataset original = SmallDataset();
  const std::string dir = TempDirFor("dataset_roundtrip");
  ASSERT_TRUE(SaveDataset(original, dir).ok());

  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->network.graph, original.network.graph);
  EXPECT_EQ(loaded->network.roles, original.network.roles);
  EXPECT_EQ(loaded->network.popularity, original.network.popularity);
  EXPECT_EQ(loaded->bios.bios, original.bios.bios);
  EXPECT_EQ(loaded->bios.roles, original.bios.roles);
  EXPECT_EQ(loaded->activity.start, original.activity.start);
  ASSERT_EQ(loaded->activity.daily_tweets.size(),
            original.activity.daily_tweets.size());
  for (size_t i = 0; i < original.activity.daily_tweets.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->activity.daily_tweets[i],
                     original.activity.daily_tweets[i]);
  }
  ASSERT_EQ(loaded->profiles.size(), original.profiles.size());
  for (size_t i = 0; i < original.profiles.size(); ++i) {
    EXPECT_EQ(loaded->profiles[i].followers, original.profiles[i].followers);
    EXPECT_EQ(loaded->profiles[i].friends, original.profiles[i].friends);
    EXPECT_EQ(loaded->profiles[i].listed, original.profiles[i].listed);
    EXPECT_EQ(loaded->profiles[i].statuses, original.profiles[i].statuses);
  }
}

TEST(DatasetTest, MissingDirectoryFails) {
  EXPECT_EQ(LoadDataset("/no/such/dataset-dir").status().code(),
            StatusCode::kIoError);
}

TEST(DatasetTest, CorruptManifestRejected) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("dataset_badmanifest");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  std::ofstream(dir + "/MANIFEST") << "not a manifest\n";
  EXPECT_EQ(LoadDataset(dir).status().code(), StatusCode::kCorruption);
}

TEST(DatasetTest, UserCountMismatchRejected) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("dataset_badcount");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  std::ofstream(dir + "/MANIFEST")
      << "elitenet-dataset v2\nusers 999\nedges 1\ndays 1\n";
  EXPECT_EQ(LoadDataset(dir).status().code(), StatusCode::kCorruption);
}

TEST(DatasetTest, V1DirectoryFailsAtManifest) {
  // A directory from before ENG2 datasets: v1 manifest, ENG1 graph.eng.
  // It must stop at the manifest header, not at a missing graph.eng2.
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("dataset_v1");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  ASSERT_EQ(std::rename((dir + "/graph.eng2").c_str(),
                        (dir + "/graph.eng").c_str()),
            0);
  std::ofstream(dir + "/MANIFEST")
      << "elitenet-dataset v1\nusers " << d.network.graph.num_nodes()
      << "\nedges " << d.network.graph.num_edges() << "\ndays 1\n";
  const Status s = LoadDataset(dir).status();
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.ToString().find("manifest"), std::string::npos) << s.ToString();
}

TEST(DatasetTest, TruncatedBiosRejected) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("dataset_badbios");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  std::ofstream(dir + "/bios.txt") << "only one bio\n";
  EXPECT_EQ(LoadDataset(dir).status().code(), StatusCode::kCorruption);
}

TEST(DatasetTest, MismatchedComponentSizesRejectedOnSave) {
  StudyDataset d = SmallDataset();
  d.profiles.pop_back();
  EXPECT_EQ(SaveDataset(d, TempDirFor("dataset_badsave")).code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetTest, LoadedDatasetIsAnalyzable) {
  const StudyDataset original = SmallDataset();
  const std::string dir = TempDirFor("dataset_analyze");
  ASSERT_TRUE(SaveDataset(original, dir).ok());
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok());

  StudyConfig cfg;
  cfg.clustering_samples = 500;
  cfg.distance_sources = 8;
  VerifiedStudy study(cfg);
  ASSERT_TRUE(study
                  .AdoptDataset(std::move(loaded->network),
                                std::move(loaded->profiles),
                                std::move(loaded->bios),
                                std::move(loaded->activity))
                  .ok());
  EXPECT_TRUE(study.generated());
  auto basic = study.RunBasic();
  ASSERT_TRUE(basic.ok());
  EXPECT_GT(basic->reciprocity.rate, 0.2);
  auto activity = study.RunActivity();
  EXPECT_TRUE(activity.ok());
}

TEST(DatasetTest, AdoptRejectsInconsistentComponents) {
  StudyDataset d = SmallDataset();
  d.bios.bios.pop_back();
  StudyConfig cfg;
  VerifiedStudy study(cfg);
  EXPECT_EQ(study
                .AdoptDataset(std::move(d.network), std::move(d.profiles),
                              std::move(d.bios), std::move(d.activity))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetTest, SaveIsIdempotent) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("dataset_twice");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  ASSERT_TRUE(SaveDataset(d, dir).ok());  // overwrite in place
  EXPECT_TRUE(LoadDataset(dir).ok());
}

}  // namespace
}  // namespace core
}  // namespace elitenet
