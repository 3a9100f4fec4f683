#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/check.hpp"

namespace gs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // One file per case and process: ctest runs every case as its own
  // process, concurrently under -j, so a shared name lets one case
  // overwrite or delete another's file.
  std::string path_ =
      ::testing::TempDir() + "/gs_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderOnConstruction) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_EQ(read_file(path_), "a,b\n");
}

TEST_F(CsvTest, WritesRows) {
  CsvWriter csv(path_, {"x", "y"});
  csv.row({"1", "2"});
  csv.row({"3", "4"});
  EXPECT_EQ(read_file(path_), "x,y\n1,2\n3,4\n");
}

TEST_F(CsvTest, RejectsWrongColumnCount) {
  CsvWriter csv(path_, {"x", "y"});
  EXPECT_THROW(csv.row({"only-one"}), Error);
  EXPECT_THROW(csv.row({"1", "2", "3"}), Error);
}

TEST_F(CsvTest, EscapesCommasAndQuotes) {
  CsvWriter csv(path_, {"v"});
  csv.row({"a,b"});
  csv.row({"say \"hi\""});
  EXPECT_EQ(read_file(path_), "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, NumFormatsDoubles) {
  EXPECT_EQ(CsvWriter::num(0.5), "0.5");
  EXPECT_EQ(CsvWriter::num(std::size_t{42}), "42");
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}), Error);
}

}  // namespace
}  // namespace gs
