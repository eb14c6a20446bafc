#include "c3i/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "c3i/terrain/checker.hpp"
#include "c3i/terrain/sequential.hpp"
#include "c3i/threat/sequential.hpp"

namespace tc3i::c3i::io {
namespace {

threat::Scenario sample_threat_scenario() {
  threat::ScenarioParams params;
  params.num_threats = 25;
  params.num_weapons = 4;
  params.dt = 1.5;
  threat::Scenario s = threat::generate_scenario(321, params);
  s.name = "round trip test";
  return s;
}

terrain::Scenario sample_terrain_scenario() {
  terrain::ScenarioParams params;
  params.x_size = 48;
  params.y_size = 40;
  params.num_threats = 6;
  terrain::Scenario s = terrain::generate_scenario(321, params);
  s.name = "terrain round trip";
  return s;
}

TEST(ThreatIo, RoundTripPreservesEverything) {
  const threat::Scenario original = sample_threat_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original);
  threat::Scenario loaded;
  std::string error;
  ASSERT_TRUE(read_scenario(buffer, loaded, error)) << error;

  EXPECT_EQ(loaded.name, original.name);
  EXPECT_DOUBLE_EQ(loaded.dt, original.dt);
  ASSERT_EQ(loaded.weapons.size(), original.weapons.size());
  ASSERT_EQ(loaded.threats.size(), original.threats.size());
  for (std::size_t i = 0; i < original.weapons.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.weapons[i].pos.x, original.weapons[i].pos.x);
    EXPECT_DOUBLE_EQ(loaded.weapons[i].max_range, original.weapons[i].max_range);
    EXPECT_DOUBLE_EQ(loaded.weapons[i].reaction_time,
                     original.weapons[i].reaction_time);
  }
  for (std::size_t i = 0; i < original.threats.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.threats[i].launch_pos.x,
                     original.threats[i].launch_pos.x);
    EXPECT_DOUBLE_EQ(loaded.threats[i].detect_time,
                     original.threats[i].detect_time);
  }
}

TEST(ThreatIo, LoadedScenarioProducesIdenticalResults) {
  const threat::Scenario original = sample_threat_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original);
  threat::Scenario loaded;
  std::string error;
  ASSERT_TRUE(read_scenario(buffer, loaded, error)) << error;
  const auto a = threat::run_sequential(original);
  const auto b = threat::run_sequential(loaded);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i)
    EXPECT_TRUE(a.intervals[i] == b.intervals[i]);
}

TEST(ThreatIo, RejectsBadMagic) {
  std::stringstream buffer("not-a-scenario 1 2 3");
  threat::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(buffer, loaded, error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(ThreatIo, RejectsTruncatedFile) {
  const threat::Scenario original = sample_threat_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original);
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  threat::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(truncated, loaded, error));
  EXPECT_FALSE(error.empty());
}

TEST(ThreatIo, RejectsNonPositiveDt) {
  std::stringstream buffer;
  buffer << "c3ipbs-threat-scenario-v1\nname x\ndt 0\nweapons 0\nthreats 0\n";
  threat::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(buffer, loaded, error));
  EXPECT_NE(error.find("dt"), std::string::npos);
}

// A corrupt record count must end in a diagnosis: the reader grows its
// lists as records arrive, so it fails on the first missing record rather
// than throwing from an up-front allocation.
TEST(ThreatIo, RejectsHugeWeaponCount) {
  std::stringstream buffer;
  buffer << "c3ipbs-threat-scenario-v1\nname x\ndt 1\n"
         << "weapons 1000000000000000000\n";
  threat::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(buffer, loaded, error));
  EXPECT_NE(error.find("'w'"), std::string::npos) << error;
}

TEST(ThreatIo, RejectsNegativeWeaponCount) {
  std::stringstream buffer;
  buffer << "c3ipbs-threat-scenario-v1\nname x\ndt 1\nweapons -1\n";
  threat::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(buffer, loaded, error));
  EXPECT_NE(error.find("negative weapon count"), std::string::npos) << error;
}

TEST(TerrainIo, RoundTripWithHeightsIsExact) {
  const terrain::Scenario original = sample_terrain_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original, /*include_heights=*/true);
  terrain::Scenario loaded;
  std::string error;
  ASSERT_TRUE(read_scenario(buffer, loaded, error)) << error;
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_TRUE(terrain::check_equal(original.terrain, loaded.terrain).ok);
  ASSERT_EQ(loaded.threats.size(), original.threats.size());
  // The loaded scenario computes the exact same masking.
  const terrain::Grid a = terrain::run_sequential(original);
  const terrain::Grid b = terrain::run_sequential(loaded);
  EXPECT_TRUE(terrain::check_equal(a, b).ok);
}

TEST(TerrainIo, GeometryOnlyFileSkipsHeights) {
  const terrain::Scenario original = sample_terrain_scenario();
  std::stringstream with, without;
  write_scenario(with, original, true);
  write_scenario(without, original, false);
  EXPECT_LT(without.str().size(), with.str().size() / 4);
  terrain::Scenario loaded;
  std::string error;
  ASSERT_TRUE(read_scenario(without, loaded, error)) << error;
  EXPECT_EQ(loaded.threats.size(), original.threats.size());
  EXPECT_EQ(loaded.terrain.cells(), 1u);  // placeholder grid
}

TEST(TerrainIo, RejectsThreatOutsideTerrain) {
  std::stringstream buffer;
  buffer << "c3ipbs-terrain-scenario-v1\nname x\nsize 10 10\nthreats 1\n"
         << "t 10 3 15.0 2\nheights 0\n";
  terrain::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(buffer, loaded, error));
  EXPECT_NE(error.find("outside"), std::string::npos);
}

TEST(TerrainIo, RejectsTruncatedHeightGrid) {
  const terrain::Scenario original = sample_terrain_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original, true);
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() - 200));
  terrain::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(truncated, loaded, error));
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(TerrainIo, RejectsHugeThreatCount) {
  std::stringstream buffer;
  buffer << "c3ipbs-terrain-scenario-v1\nname x\nsize 10 10\n"
         << "threats 1000000000000000000\n";
  terrain::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(buffer, loaded, error));
  EXPECT_NE(error.find("'t'"), std::string::npos) << error;
}

TEST(TerrainIo, RejectsHugeGridWithoutHeights) {
  // 4e18 cells: beyond any vector's max_size, so only a reader that grows
  // the grid as heights arrive can diagnose the missing values.
  std::stringstream buffer;
  buffer << "c3ipbs-terrain-scenario-v1\nname x\n"
         << "size 2000000000 2000000000\nthreats 0\nheights 1\n";
  terrain::Scenario loaded;
  std::string error;
  EXPECT_FALSE(read_scenario(buffer, loaded, error));
  EXPECT_NE(error.find("truncated height grid at (0, 0)"), std::string::npos)
      << error;
}

TEST(FileIo, SaveAndLoadThreatScenario) {
  const threat::Scenario original = sample_threat_scenario();
  const std::string path = ::testing::TempDir() + "/tc3i_threat_io_test.txt";
  std::string error;
  ASSERT_TRUE(save_to_file(path, original, error)) << error;
  threat::Scenario loaded;
  ASSERT_TRUE(load_from_file(path, loaded, error)) << error;
  EXPECT_EQ(loaded.threats.size(), original.threats.size());
}

TEST(FileIo, SaveAndLoadTerrainScenario) {
  const terrain::Scenario original = sample_terrain_scenario();
  const std::string path = ::testing::TempDir() + "/tc3i_terrain_io_test.txt";
  std::string error;
  ASSERT_TRUE(save_to_file(path, original, error)) << error;
  terrain::Scenario loaded;
  ASSERT_TRUE(load_from_file(path, loaded, error)) << error;
  EXPECT_TRUE(terrain::check_equal(original.terrain, loaded.terrain).ok);
}

TEST(FileIo, MissingFileReportsError) {
  threat::Scenario loaded;
  std::string error;
  EXPECT_FALSE(load_from_file("/nonexistent/path/file.txt", loaded, error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace tc3i::c3i::io
