#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/rng.hpp"

namespace gs {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  // One file per case and process: ctest runs every case as its own
  // process, concurrently under -j, so a shared name lets one case
  // overwrite or delete another's file.
  std::string path_ =
      ::testing::TempDir() + "/gs_tensor_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializeTest, RoundTripPreservesShapeAndData) {
  Rng rng(1);
  Tensor t(Shape{3, 4, 5});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  save_tensor(path_, t);
  Tensor back = load_tensor(path_);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_TRUE(allclose(back, t, 0.0f));
}

TEST_F(SerializeTest, RoundTripRank1) {
  Tensor t(Shape{7}, 2.5f);
  save_tensor(path_, t);
  EXPECT_TRUE(allclose(load_tensor(path_), t, 0.0f));
}

TEST(Serialize, StreamRoundTrip) {
  std::stringstream ss;
  Tensor t = Tensor::from_rows({{1, 2}, {3, 4}});
  write_tensor(ss, t);
  Tensor back = read_tensor(ss);
  EXPECT_TRUE(allclose(back, t, 0.0f));
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream ss;
  ss << "not a tensor at all";
  EXPECT_THROW(read_tensor(ss), Error);
}

TEST(Serialize, TruncatedPayloadRejected) {
  std::stringstream ss;
  Tensor t(Shape{100}, 1.0f);
  write_tensor(ss, t);
  std::string raw = ss.str();
  raw.resize(raw.size() / 2);
  std::stringstream truncated(raw);
  EXPECT_THROW(read_tensor(truncated), Error);
}

TEST(Serialize, LoadFromMissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent-dir-xyz/tensor.bin"), Error);
}

TEST_F(SerializeTest, CsvDumpHasMatrixLayout) {
  Tensor t = Tensor::from_rows({{1.5f, 2.0f}, {3.0f, 4.5f}});
  save_matrix_csv(path_, t);
  std::ifstream in(path_);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "1.5,2");
  EXPECT_EQ(line2, "3,4.5");
}

TEST(Serialize, CsvRequiresRank2) {
  Tensor t(Shape{4});
  EXPECT_THROW(save_matrix_csv("/tmp/gs_whatever.csv", t), Error);
}

}  // namespace
}  // namespace gs
