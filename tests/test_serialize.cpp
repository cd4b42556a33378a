#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "skiptrain_ckpt_test.bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializeTest, RoundTripPreservesParameters) {
  Sequential model = make_mlp(8, {16}, 4);
  util::Rng rng(3);
  initialize(model, rng);
  const std::vector<float> original = model.parameters_flat();

  save_checkpoint(model, path_);

  Sequential other = make_mlp(8, {16}, 4);
  initialize(other, rng);  // different weights
  ASSERT_NE(other.parameters_flat(), original);

  load_checkpoint(other, path_);
  EXPECT_EQ(other.parameters_flat(), original);
}

TEST_F(SerializeTest, HeaderReportsParamCount) {
  Sequential model = make_softmax_regression(10, 5);
  save_checkpoint(model, path_);
  EXPECT_EQ(checkpoint_param_count(path_), model.num_parameters());
}

TEST_F(SerializeTest, MismatchedArchitectureThrows) {
  Sequential model = make_mlp(8, {16}, 4);
  util::Rng rng(5);
  initialize(model, rng);
  save_checkpoint(model, path_);

  Sequential wrong = make_mlp(8, {17}, 4);
  EXPECT_THROW(load_checkpoint(wrong, path_), std::runtime_error);
}

TEST_F(SerializeTest, CorruptMagicThrows) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a checkpoint at all";
  }
  Sequential model = make_mlp(2, {}, 2);
  EXPECT_THROW(load_checkpoint(model, path_), std::runtime_error);
  EXPECT_THROW(checkpoint_param_count(path_), std::runtime_error);
}

TEST_F(SerializeTest, TruncatedFileThrows) {
  Sequential model = make_mlp(8, {16}, 4);
  save_checkpoint(model, path_);
  // Truncate to header + a few floats.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes(32);
  in.read(bytes.data(), 32);
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 32);
  }
  EXPECT_THROW(load_checkpoint(model, path_), std::runtime_error);
}

TEST_F(SerializeTest, MissingFileThrows) {
  Sequential model = make_mlp(2, {}, 2);
  EXPECT_THROW(load_checkpoint(model, "/nonexistent/ckpt.bin"),
               std::runtime_error);
  EXPECT_THROW(save_checkpoint(model, "/nonexistent-dir/ckpt.bin"),
               std::runtime_error);
}

TEST_F(SerializeTest, TrailingGarbageAfterPayloadThrows) {
  // Regression: the loader used to read exactly param_count floats and
  // silently ignore whatever followed, so a corrupted (e.g. doubly
  // concatenated) checkpoint half-loaded as a valid one.
  Sequential model = make_mlp(8, {16}, 4);
  util::Rng rng(11);
  initialize(model, rng);
  save_checkpoint(model, path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "trailing garbage";
  }
  EXPECT_THROW(load_checkpoint(model, path_), std::runtime_error);
  EXPECT_THROW((void)checkpoint_param_count(path_), std::runtime_error);
}

TEST_F(SerializeTest, HostileParamCountIsRejectedBeforeAllocating) {
  // A header claiming 2^61 parameters would overflow
  // `param_count * sizeof(float)` (and try to allocate exabytes) in the
  // old loader. The hardened reader bounds the count against the actual
  // file size first.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write("SKTN", 4);
    const std::uint32_t version = kCheckpointVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::uint64_t huge = std::uint64_t{1} << 61;
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
    const float payload[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    out.write(reinterpret_cast<const char*>(payload), sizeof(payload));
  }
  Sequential model = make_mlp(8, {16}, 4);
  EXPECT_THROW(load_checkpoint(model, path_), std::runtime_error);
  EXPECT_THROW((void)checkpoint_param_count(path_), std::runtime_error);
}

TEST_F(SerializeTest, LargeModelRoundTrip) {
  // About 1.6 M parameters: the LEAF FEMNIST CNN's dense head.
  Sequential model = make_mlp(3136, {512}, 62);
  util::Rng rng(7);
  initialize(model, rng);
  save_checkpoint(model, path_);
  Sequential loaded = make_mlp(3136, {512}, 62);
  load_checkpoint(loaded, path_);
  EXPECT_EQ(loaded.parameters_flat(), model.parameters_flat());
}

}  // namespace
}  // namespace skiptrain::nn
