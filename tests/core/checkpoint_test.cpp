// Tests for GSCK checkpoint frames and the two-slot store: field-exact
// round trips, version 1 compatibility, corruption detection (magic,
// version, truncation, bit flips, trailing garbage), slot alternation, and
// LoadLatest's fallback semantics.
#include "core/checkpoint.hpp"

#include <cstdint>
#include <iterator>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "io/device.hpp"
#include "io/file.hpp"
#include "testing_util.hpp"

namespace graphsd::core {
namespace {

using graphsd::testing::BuildTestGrid;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

Checkpoint SampleCheckpoint(std::uint32_t iteration = 7) {
  Checkpoint cp;
  cp.fingerprint = 0xdeadbeef;
  cp.algorithm = "sssp";
  cp.gather = false;
  cp.iteration = iteration;
  cp.num_vertices = 5;
  cp.arrays = {{1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}};
  cp.active = {0, 2, 4};
  cp.preact = {1, 3};
  // The v1 totals below are the ones kGoldenV1Frame was encoded from.
  RunTotals& t = cp.totals;
  t.rounds = 9;
  t.degraded_rounds = 1;
  t.compute_seconds = 1.5;
  t.update_seconds = 0.75;
  t.io_seconds = 2.25;
  t.scheduler_seconds = 0.125;
  t.overlapped_seconds = 2.5;
  t.decode_seconds = 0.0625;
  t.io.seq_read_bytes = 1000;
  t.io.rand_read_bytes = 2000;
  t.io.seq_write_bytes = 3000;
  t.io.rand_write_bytes = 123;
  t.io.seq_read_ops = 11;
  t.io.seq_write_ops = 12;
  t.io.rand_read_ops = 13;
  t.io.rand_write_ops = 14;
  t.io.retries = 2;
  t.io.checksum_failures = 1;
  t.buffer_hits = 42;
  t.buffer_misses = 17;
  t.buffer_bytes_saved = 4096;
  t.buffer_disk_bytes_saved = 2048;
  t.frames_decoded = 5;
  t.compressed_bytes_read = 555;
  t.decoded_bytes = 777;
  t.checkpoints_written = 3;
  t.checkpoint_bytes = 999;
  t.checkpoint_seconds = 0.03125;
  // Appended in GSCK v2.
  t.semi_rounds = 6;
  t.blocks_skipped = 31;
  t.blocks_skipped_bytes = 8192;
  t.buffer_frame_hits = 4;
  t.buffer_frame_puts = 8;
  t.io.vectored_reads = 16;
  t.io.bounce_reads = 110;
  t.apply_serialization_seconds = 0.015625;
  return cp;
}

void ExpectEqual(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.gather, b.gather);
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_EQ(a.arrays, b.arrays);
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.preact, b.preact);
  EXPECT_EQ(a.totals, b.totals);
}

// EncodeCheckpoint(SampleCheckpoint()) as written by the GSCK version 1
// encoder, whose payload ends at checkpoint_seconds.
constexpr std::uint8_t kGoldenV1Frame[] = {
    0x47, 0x53, 0x43, 0x4b, 0x01, 0x00, 0x00, 0x00, 0x69, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xaf, 0x7c, 0x1a, 0x1d, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde,
    0x04, 0x00, 0x00, 0x00, 0x73, 0x73, 0x73, 0x70, 0x00, 0x07, 0x00, 0x00,
    0x00, 0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xe8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
    0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x04, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb0,
    0x3f, 0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb8, 0x0b, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x7b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2b, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0xe7, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0x3f,
};

std::vector<std::uint8_t> GoldenV1Frame() {
  return {std::begin(kGoldenV1Frame), std::end(kGoldenV1Frame)};
}

TEST(CheckpointFrame, RoundTripsEveryField) {
  Checkpoint cp = SampleCheckpoint();
  // A distinct nonzero value in every total, so a field the codec drops,
  // truncates or swaps cannot round-trip.
  int k = 0;
  RunTotals::ForEachField(
      [&k](auto& field) {
        field = static_cast<std::remove_reference_t<decltype(field)>>(++k * 3);
      },
      cp.totals);
  const std::vector<std::uint8_t> frame = EncodeCheckpoint(cp);
  ASSERT_GE(frame.size(), kCheckpointHeaderBytes);
  EXPECT_EQ(frame[0], 'G');
  EXPECT_EQ(frame[1], 'S');
  EXPECT_EQ(frame[2], 'C');
  EXPECT_EQ(frame[3], 'K');
  EXPECT_EQ(frame[4], kCheckpointFormatVersion);
  const Checkpoint decoded = ValueOrDie(DecodeCheckpoint(frame));
  ExpectEqual(cp, decoded);
}

TEST(CheckpointFrame, DecodesVersionOneFrame) {
  const std::vector<std::uint8_t> frame = GoldenV1Frame();
  ASSERT_EQ(frame[4], 1u);
  const Checkpoint decoded = ValueOrDie(DecodeCheckpoint(frame));
  // The v1 fields match the sample; the fields v2 appended read as zero.
  Checkpoint expect = SampleCheckpoint();
  std::size_t field = 0;
  RunTotals::ForEachField(
      [&field](auto& value) {
        if (field++ >= kCheckpointV1Fields) value = 0;
      },
      expect.totals);
  EXPECT_EQ(field, kCheckpointV1Fields + 8);
  ExpectEqual(expect, decoded);
  EXPECT_EQ(decoded.totals.semi_rounds, 0u);
  EXPECT_EQ(decoded.totals.blocks_skipped, 0u);
  EXPECT_EQ(decoded.totals.blocks_skipped_bytes, 0u);
  EXPECT_EQ(decoded.totals.buffer_frame_hits, 0u);
  EXPECT_EQ(decoded.totals.buffer_frame_puts, 0u);
  EXPECT_EQ(decoded.totals.io.vectored_reads, 0u);
  EXPECT_EQ(decoded.totals.io.bounce_reads, 0u);
  EXPECT_EQ(decoded.totals.apply_serialization_seconds, 0.0);
}

TEST(CheckpointFrame, VersionFieldSetsThePayloadLength) {
  // The CRC covers only the payload, so relabelling a frame's version keeps
  // it CRC-clean: a v1 payload read as v2 is truncated, a v2 payload read
  // as v1 has trailing bytes.
  std::vector<std::uint8_t> v1_as_v2 = GoldenV1Frame();
  v1_as_v2[4] = 2;
  EXPECT_EQ(DecodeCheckpoint(v1_as_v2).status().code(),
            StatusCode::kCorruptData);
  std::vector<std::uint8_t> v2_as_v1 = EncodeCheckpoint(SampleCheckpoint());
  v2_as_v1[4] = 1;
  EXPECT_EQ(DecodeCheckpoint(v2_as_v1).status().code(),
            StatusCode::kCorruptData);
}

TEST(CheckpointFrame, RoundTripsGatherWithoutFrontiers) {
  Checkpoint cp = SampleCheckpoint();
  cp.gather = true;
  cp.active.clear();
  cp.preact.clear();
  const Checkpoint decoded = ValueOrDie(DecodeCheckpoint(EncodeCheckpoint(cp)));
  ExpectEqual(cp, decoded);
}

TEST(CheckpointFrame, RejectsBadMagic) {
  std::vector<std::uint8_t> frame = EncodeCheckpoint(SampleCheckpoint());
  frame[0] = 'X';
  EXPECT_EQ(DecodeCheckpoint(frame).status().code(), StatusCode::kCorruptData);
}

TEST(CheckpointFrame, RejectsNewerVersionAsUnimplemented) {
  std::vector<std::uint8_t> frame = EncodeCheckpoint(SampleCheckpoint());
  frame[4] = 0xff;  // version low byte
  EXPECT_EQ(DecodeCheckpoint(frame).status().code(),
            StatusCode::kUnimplemented);
}

TEST(CheckpointFrame, RejectsEveryTruncation) {
  const std::vector<std::uint8_t> frame = EncodeCheckpoint(SampleCheckpoint());
  // Chop at a spread of prefix lengths including 0, mid-header, mid-payload
  // and one-short: none may decode.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, kCheckpointHeaderBytes - 1,
        kCheckpointHeaderBytes, frame.size() / 2, frame.size() - 1}) {
    std::vector<std::uint8_t> torn(frame.begin(), frame.begin() + keep);
    EXPECT_EQ(DecodeCheckpoint(torn).status().code(), StatusCode::kCorruptData)
        << "prefix of " << keep << " bytes decoded";
  }
}

TEST(CheckpointFrame, RejectsEveryPayloadBitFlip) {
  const std::vector<std::uint8_t> frame = EncodeCheckpoint(SampleCheckpoint());
  // Flipping any single payload bit must break the CRC. Sampling every
  // seventh byte keeps the test fast while covering the whole payload.
  for (std::size_t i = kCheckpointHeaderBytes; i < frame.size(); i += 7) {
    std::vector<std::uint8_t> flipped = frame;
    flipped[i] ^= 0x10;
    EXPECT_FALSE(DecodeCheckpoint(flipped).ok()) << "byte " << i;
  }
}

TEST(CheckpointFrame, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> frame = EncodeCheckpoint(SampleCheckpoint());
  frame.push_back(0);
  EXPECT_EQ(DecodeCheckpoint(frame).status().code(), StatusCode::kCorruptData);
}

TEST(CheckpointFrame, RejectsUnsortedFrontier) {
  // Hand-corrupt an id list by swapping two ids: the decoder must notice the
  // ordering violation even though sizes and CRC are re-encoded consistently.
  Checkpoint cp = SampleCheckpoint();
  cp.active = {4, 2, 0};  // not ascending
  const std::vector<std::uint8_t> frame = EncodeCheckpoint(cp);
  EXPECT_EQ(DecodeCheckpoint(frame).status().code(), StatusCode::kCorruptData);
}

TEST(DatasetFingerprintTest, DistinguishesRebuilds) {
  TempDir dir;
  auto device = io::MakeSimulatedDevice();
  const EdgeList graph = GenerateGrid2D(4, 4, /*seed=*/1, /*max_weight=*/0);
  const auto m2 = BuildTestGrid(graph, *device, dir.Sub("p2"), 2);
  const auto m4 = BuildTestGrid(graph, *device, dir.Sub("p4"), 4);
  EXPECT_EQ(DatasetFingerprint(m2), DatasetFingerprint(m2));
  EXPECT_NE(DatasetFingerprint(m2), DatasetFingerprint(m4));
}

TEST(CheckpointStoreTest, EmptyDirectoryIsNotFound) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  EXPECT_FALSE(store.AnySlotExists());
  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, WriteThenLoadLatestRoundTrips) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  const Checkpoint cp = SampleCheckpoint(3);
  std::uint64_t bytes = 0;
  ASSERT_OK(store.Write(cp, &bytes));
  EXPECT_GT(bytes, kCheckpointHeaderBytes);
  EXPECT_TRUE(store.AnySlotExists());
  ExpectEqual(cp, ValueOrDie(store.LoadLatest()));
}

TEST(CheckpointStoreTest, AlternatesSlotsAndKeepsLatest) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  ASSERT_OK(store.Write(SampleCheckpoint(1)));
  ASSERT_OK(store.Write(SampleCheckpoint(2)));
  ASSERT_OK(store.Write(SampleCheckpoint(3)));
  // Both slot files exist; the latest wins.
  EXPECT_TRUE(io::PathExists(store.SlotPath(0)));
  EXPECT_TRUE(io::PathExists(store.SlotPath(1)));
  EXPECT_EQ(ValueOrDie(store.LoadLatest()).iteration, 3u);
}

TEST(CheckpointStoreTest, FallsBackWhenNewestSlotIsCorrupt) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  ASSERT_OK(store.Write(SampleCheckpoint(1)));
  ASSERT_OK(store.Write(SampleCheckpoint(2)));
  // Find and damage the slot holding iteration 2.
  for (int slot = 0; slot < 2; ++slot) {
    std::string data = ValueOrDie(io::ReadFileToString(store.SlotPath(slot)));
    auto cp = DecodeCheckpoint(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
    ASSERT_TRUE(cp.ok());
    if (cp->iteration == 2) {
      data[data.size() / 2] ^= 0x01;
      ASSERT_OK(io::WriteStringToFile(store.SlotPath(slot), data));
    }
  }
  EXPECT_EQ(ValueOrDie(store.LoadLatest()).iteration, 1u);
}

TEST(CheckpointStoreTest, AllSlotsCorruptIsCorruptData) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  ASSERT_OK(store.Write(SampleCheckpoint(1)));
  ASSERT_OK(store.Write(SampleCheckpoint(2)));
  for (int slot = 0; slot < 2; ++slot) {
    ASSERT_OK(io::WriteStringToFile(store.SlotPath(slot), "torn"));
  }
  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kCorruptData);
}

TEST(CheckpointStoreTest, WriteNeverOverwritesTheLatestValidSlot) {
  TempDir dir;
  // A fresh store instance (as after a crash + restart) must rediscover
  // which slot holds the newest checkpoint and overwrite the other.
  {
    CheckpointStore store(dir.Sub("ck"));
    ASSERT_OK(store.Write(SampleCheckpoint(5)));
  }
  {
    CheckpointStore store(dir.Sub("ck"));
    ASSERT_OK(store.Write(SampleCheckpoint(6)));
    EXPECT_EQ(ValueOrDie(store.LoadLatest()).iteration, 6u);
  }
  // Both checkpoints still on disk, in different slots.
  CheckpointStore store(dir.Sub("ck"));
  std::uint32_t seen[2] = {0, 0};
  for (int slot = 0; slot < 2; ++slot) {
    std::string data = ValueOrDie(io::ReadFileToString(store.SlotPath(slot)));
    seen[slot] = ValueOrDie(DecodeCheckpoint(std::span<const std::uint8_t>(
                                reinterpret_cast<const std::uint8_t*>(
                                    data.data()),
                                data.size())))
                     .iteration;
  }
  EXPECT_EQ(seen[0] + seen[1], 11u);
}

TEST(AsyncCheckpointWriterTest, FlushMakesSubmittedFramesLoadable) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  AsyncCheckpointWriter writer(&store);
  EXPECT_GT(ValueOrDie(writer.Submit(SampleCheckpoint(1))), 0u);
  ASSERT_OK(writer.Flush());
  EXPECT_GT(writer.bytes_written(), 0u);
  EXPECT_EQ(ValueOrDie(store.LoadLatest()).iteration, 1u);
}

TEST(AsyncCheckpointWriterTest, LatestSubmissionWinsUnderBackpressure) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  AsyncCheckpointWriter writer(&store);
  // Rapid-fire submissions: superseded frames may be dropped, but the
  // newest must always survive to disk and the two-slot invariant holds.
  for (std::uint32_t i = 1; i <= 20; ++i) {
    ASSERT_OK(writer.Submit(SampleCheckpoint(i)).status());
  }
  ASSERT_OK(writer.Flush());
  EXPECT_EQ(ValueOrDie(store.LoadLatest()).iteration, 20u);
  EXPECT_LE(writer.frames_dropped(), 19u);
}

TEST(AsyncCheckpointWriterTest, FlushOnIdleWriterIsANoOp) {
  TempDir dir;
  CheckpointStore store(dir.Sub("ck"));
  AsyncCheckpointWriter writer(&store);
  ASSERT_OK(writer.Flush());
  EXPECT_EQ(writer.bytes_written(), 0u);
}

TEST(AsyncCheckpointWriterTest, DestructorDrainsQueuedFrames) {
  TempDir dir;
  {
    CheckpointStore store(dir.Sub("ck"));
    AsyncCheckpointWriter writer(&store);
    ASSERT_OK(writer.Submit(SampleCheckpoint(9)).status());
    // No Flush: destruction must still finish the queued write.
  }
  CheckpointStore store(dir.Sub("ck"));
  EXPECT_EQ(ValueOrDie(store.LoadLatest()).iteration, 9u);
}

}  // namespace
}  // namespace graphsd::core
