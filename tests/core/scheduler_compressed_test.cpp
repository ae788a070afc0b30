// Scheduler cost evaluation on compressed datasets: every model must be
// charged the on-disk (frame) byte counts plus its frame decode, while raw
// datasets keep the original arithmetic.
#include <memory>

#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "graph/generators.hpp"
#include "testing_util.hpp"

namespace graphsd::core {
namespace {

using graphsd::testing::BuildTestGrid;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

class SchedulerCompressedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = io::MakeSimulatedDevice();
    RmatOptions options;
    options.scale = 10;
    options.edge_factor = 8;
    options.max_weight = 10.0;
    graph_ = GenerateRmat(options);
    BuildTestGrid(graph_, *device_, dir_.Sub("raw"), 4);
    BuildTestGrid(graph_, *device_, dir_.Sub("comp"), 4, "test",
                  "varint-delta");
    raw_ = std::make_unique<partition::GridDataset>(
        ValueOrDie(partition::GridDataset::Open(*device_, dir_.Sub("raw"))));
    comp_ = std::make_unique<partition::GridDataset>(
        ValueOrDie(partition::GridDataset::Open(*device_, dir_.Sub("comp"))));
  }

  TempDir dir_;
  std::unique_ptr<io::Device> device_;
  EdgeList graph_;
  std::unique_ptr<partition::GridDataset> raw_;
  std::unique_ptr<partition::GridDataset> comp_;
};

TEST_F(SchedulerCompressedTest, RawDatasetChargesNoDecode) {
  StateAwareScheduler scheduler(*raw_, io::IoCostModel::Hdd());
  Frontier active(raw_->num_vertices());
  active.ActivateAll();
  const SchedulerDecision d = scheduler.Evaluate(active, 8, true);
  EXPECT_EQ(d.decode_seconds_full, 0.0);
  EXPECT_EQ(d.decode_seconds_on_demand, 0.0);
}

TEST_F(SchedulerCompressedTest, FullModelChargesFrameBytesPlusDecode) {
  const io::IoCostModel model = io::IoCostModel::Hdd();
  StateAwareScheduler raw_sched(*raw_, model);
  StateAwareScheduler comp_sched(*comp_, model);
  Frontier active(raw_->num_vertices());
  active.ActivateAll();
  const SchedulerDecision raw_d = raw_sched.Evaluate(active, 8, true);
  const SchedulerDecision comp_d = comp_sched.Evaluate(active, 8, true);

  // Decode estimate covers the full decoded edge payload.
  EXPECT_GT(comp_d.decode_seconds_full, 0.0);
  EXPECT_NEAR(comp_d.decode_seconds_full,
              model.DecodeSeconds(comp_->num_edges() * kEdgeBytes), 1e-12);

  // The disk portion of C_s shrinks by exactly the byte reduction: the
  // compressed cost minus decode must undercut the raw C_s.
  ASSERT_LT(comp_->manifest().TotalEdgeFileBytes(),
            raw_->manifest().TotalEdgeFileBytes());
  EXPECT_LT(comp_d.cost_full - comp_d.decode_seconds_full, raw_d.cost_full);
}

TEST_F(SchedulerCompressedTest, OnDemandChargesWholeFramesOfActiveRows) {
  const io::IoCostModel model = io::IoCostModel::Hdd();
  StateAwareScheduler scheduler(*comp_, model);
  const auto& manifest = comp_->manifest();

  // All rows active: S_seq must include every non-empty sub-block's frame
  // (the CSR index addresses decoded offsets, so edges arrive per frame).
  Frontier all(comp_->num_vertices());
  all.ActivateAll();
  const SchedulerDecision d_all = scheduler.Evaluate(all, 8, true);
  EXPECT_GE(d_all.seq_bytes, manifest.TotalEdgeFileBytes());
  EXPECT_GT(d_all.decode_seconds_on_demand, 0.0);
  EXPECT_NEAR(d_all.decode_seconds_on_demand,
              model.DecodeSeconds(comp_->num_edges() * kEdgeBytes), 1e-12);

  // One active vertex: only its row's frames are charged and decoded.
  Frontier one(comp_->num_vertices());
  VertexId v = 0;
  while (v < comp_->num_vertices() && comp_->out_degrees()[v] == 0) ++v;
  ASSERT_LT(v, comp_->num_vertices());
  one.Activate(v);
  const SchedulerDecision d_one = scheduler.Evaluate(one, 8, true);
  const std::uint32_t row = partition::IntervalOf(manifest.boundaries, v);
  std::uint64_t row_frames = 0;
  std::uint64_t row_edges = 0;
  for (std::uint32_t j = 0; j < manifest.p; ++j) {
    if (manifest.EdgesIn(row, j) == 0) continue;
    row_frames += manifest.EdgeFileBytes(row, j);
    row_edges += manifest.EdgesIn(row, j);
  }
  EXPECT_GE(d_one.seq_bytes, row_frames);
  EXPECT_LT(d_one.seq_bytes, manifest.TotalEdgeFileBytes());
  EXPECT_NEAR(d_one.decode_seconds_on_demand,
              model.DecodeSeconds(row_edges * kEdgeBytes), 1e-12);
  EXPECT_LT(d_one.decode_seconds_on_demand, d_all.decode_seconds_on_demand);
}

TEST_F(SchedulerCompressedTest, BufferResidentBlockAddsNoSemiDecode) {
  const io::IoCostModel model = io::IoCostModel::Hdd();
  StateAwareScheduler scheduler(*comp_, model);
  const auto& manifest = comp_->manifest();
  Frontier active(comp_->num_vertices());
  active.ActivateAll();
  std::uint32_t j = 0;
  while (j < manifest.p && manifest.EdgesIn(0, j) == 0) ++j;
  ASSERT_LT(j, manifest.p);

  SubBlockBuffer buffer(std::uint64_t{1} << 30);
  ASSERT_TRUE(buffer.Put(
      0, j, ValueOrDie(comp_->LoadSubBlock(0, j, /*load_weights=*/true)), 1));
  const SemiCostInputs cold{};
  const SemiCostInputs warm{nullptr, &buffer};
  const SchedulerDecision d_cold =
      scheduler.Evaluate(active, 0, true, /*fciu_round=*/false, &cold);
  const SchedulerDecision d_warm =
      scheduler.Evaluate(active, 0, true, /*fciu_round=*/false, &warm);

  // The buffer holds the block decoded: a hit neither reads nor decodes,
  // so the warm estimate drops exactly that block's decode and bytes.
  const double block_decode =
      model.DecodeSeconds(manifest.EdgesIn(0, j) * kEdgeBytes);
  ASSERT_GT(block_decode, 0.0);
  EXPECT_NEAR(d_warm.decode_seconds_semi,
              d_cold.decode_seconds_semi - block_decode, 1e-12);
  EXPECT_LT(d_warm.cost_semi, d_cold.cost_semi - block_decode);
}

}  // namespace
}  // namespace graphsd::core
