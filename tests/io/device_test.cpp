#include "io/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "testing_util.hpp"

namespace graphsd::io {
namespace {

using testing::TempDir;
using testing::ValueOrDie;

std::vector<std::uint8_t> Pattern(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(i);
  return data;
}

TEST(Device, RoundTripPreservesData) {
  TempDir dir;
  auto device = MakePosixDevice();
  const auto data = Pattern(1000);
  {
    DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kWrite));
    ASSERT_OK(f.WriteAt(0, data));
  }
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kRead));
  std::vector<std::uint8_t> out(1000);
  ASSERT_OK(f.ReadAt(0, out));
  EXPECT_EQ(out, data);
}

TEST(Device, FirstReadIsRandomFollowUpIsSequential) {
  TempDir dir;
  auto device = MakePosixDevice();
  {
    DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kWrite));
    ASSERT_OK(f.WriteAt(0, Pattern(4096)));
  }
  device->ResetAccounting();

  DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kRead));
  std::vector<std::uint8_t> buf(1024);
  ASSERT_OK(f.ReadAt(0, buf));     // seek to 0: random
  ASSERT_OK(f.ReadAt(1024, buf));  // continues: sequential
  ASSERT_OK(f.ReadAt(2048, buf));  // continues: sequential
  ASSERT_OK(f.ReadAt(0, buf));     // jumps back: random

  const auto s = device->stats().Snapshot();
  EXPECT_EQ(s.rand_read_ops, 2u);
  EXPECT_EQ(s.seq_read_ops, 2u);
  EXPECT_EQ(s.TotalReadBytes(), 4096u);
}

TEST(Device, WritePatternClassification) {
  TempDir dir;
  auto device = MakePosixDevice();
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("w"), OpenMode::kWrite));
  const auto data = Pattern(512);
  ASSERT_OK(f.WriteAt(0, data));    // random (first)
  ASSERT_OK(f.WriteAt(512, data));  // sequential
  ASSERT_OK(f.WriteAt(0, data));    // random (rewind)
  const auto s = device->stats().Snapshot();
  EXPECT_EQ(s.rand_write_ops, 2u);
  EXPECT_EQ(s.seq_write_ops, 1u);
}

TEST(Device, SimulatedDeviceChargesVirtualTime) {
  TempDir dir;
  IoCostModel model;
  model.seq_read_bw = 1024.0 * 1024;  // 1 MiB/s: easy math
  model.seq_write_bw = 1024.0 * 1024;
  model.seek_seconds = 0.5;
  auto device = MakeSimulatedDevice(model);

  {
    DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kWrite));
    ASSERT_OK(f.WriteAt(0, Pattern(1024 * 1024)));  // 1 random write
  }
  // 1 MiB at 1 MiB/s + one seek.
  EXPECT_NEAR(device->clock().Seconds(), 1.0 + 0.5, 1e-6);

  device->ResetAccounting();
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kRead));
  std::vector<std::uint8_t> buf(512 * 1024);
  ASSERT_OK(f.ReadAt(0, buf));              // seek + 0.5 s transfer
  ASSERT_OK(f.ReadAt(512 * 1024, buf));     // sequential: 0.5 s
  EXPECT_NEAR(device->clock().Seconds(), 0.5 + 0.5 + 0.5, 1e-6);
}

TEST(Device, PosixDeviceChargesNoVirtualTime) {
  TempDir dir;
  auto device = MakePosixDevice();
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kWrite));
  ASSERT_OK(f.WriteAt(0, Pattern(1 << 20)));
  EXPECT_EQ(device->clock().Seconds(), 0.0);
  EXPECT_GT(device->stats().Snapshot().TotalBytes(), 0u);  // still counted
}

TEST(Device, ResetAccountingClearsBoth) {
  TempDir dir;
  auto device = MakeSimulatedDevice();
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("x"), OpenMode::kWrite));
  ASSERT_OK(f.WriteAt(0, Pattern(4096)));
  device->ResetAccounting();
  EXPECT_EQ(device->stats().Snapshot().TotalBytes(), 0u);
  EXPECT_EQ(device->clock().Seconds(), 0.0);
}

TEST(Device, IndependentFilesTrackIndependentCursors) {
  TempDir dir;
  auto device = MakePosixDevice();
  {
    DeviceFile a = ValueOrDie(device->Open(dir.Sub("a"), OpenMode::kWrite));
    DeviceFile b = ValueOrDie(device->Open(dir.Sub("b"), OpenMode::kWrite));
    ASSERT_OK(a.WriteAt(0, Pattern(1024)));
    ASSERT_OK(b.WriteAt(0, Pattern(1024)));
  }
  device->ResetAccounting();
  DeviceFile a = ValueOrDie(device->Open(dir.Sub("a"), OpenMode::kRead));
  DeviceFile b = ValueOrDie(device->Open(dir.Sub("b"), OpenMode::kRead));
  std::vector<std::uint8_t> buf(512);
  ASSERT_OK(a.ReadAt(0, buf));
  ASSERT_OK(b.ReadAt(0, buf));
  ASSERT_OK(a.ReadAt(512, buf));  // sequential on a despite interleaving
  ASSERT_OK(b.ReadAt(512, buf));  // sequential on b
  const auto s = device->stats().Snapshot();
  EXPECT_EQ(s.rand_read_ops, 2u);
  EXPECT_EQ(s.seq_read_ops, 2u);
}

TEST(Device, MakeDeviceForKindRecognizesEveryCliSpelling) {
  for (const char* kind : {"scaled-hdd", "sim:scaled-hdd", "sim:hdd",
                           "sim:ssd", "real:ssd", "posix"}) {
    auto device = MakeDeviceForKind(kind);
    ASSERT_OK(device.status());
    ASSERT_NE(*device, nullptr);
  }
  // The posix kind measures real time only; the simulated kinds charge the
  // virtual clock.
  EXPECT_FALSE(
      ValueOrDie(MakeDeviceForKind("posix"))->options().charge_virtual_time);
  EXPECT_TRUE(
      ValueOrDie(MakeDeviceForKind("sim:hdd"))->options().charge_virtual_time);
}

TEST(Device, MakeDeviceForKindRejectsUnknownKind) {
  // Regression: the CLI and the service each had their own parser and both
  // silently defaulted unknown kinds to scaled-hdd, so a typo like
  // "--device sdd" benched the wrong profile without a word.
  auto device = MakeDeviceForKind("sdd");
  EXPECT_EQ(device.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeDeviceForKind("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Device, MakeDeviceForKindRejectsAmbiguousBareSpellings) {
  // Regression: "ssd" used to silently return the *simulated* SSD profile.
  // Once a real backend exists the bare word is ambiguous, and a benchmark
  // must never run modeled I/O believing it measured hardware.
  for (const char* kind : {"hdd", "ssd"}) {
    auto device = MakeDeviceForKind(kind);
    EXPECT_EQ(device.status().code(), StatusCode::kInvalidArgument) << kind;
    EXPECT_NE(device.status().message().find("sim:"), std::string::npos)
        << kind;
  }
}

TEST(Device, RealSsdDeviceMeasuresRealTimeWithSsdSchedulerModel) {
  auto device = ValueOrDie(MakeDeviceForKind("real:ssd"));
  const DeviceOptions& opts = device->options();
  EXPECT_FALSE(opts.charge_virtual_time);  // wall-clock measurements only
  EXPECT_TRUE(opts.use_direct_io);
  // The scheduler still prices C_r/C_s/C_m with SSD economics.
  EXPECT_EQ(opts.cost_model.seek_seconds, IoCostModel::Ssd().seek_seconds);
  EXPECT_EQ(opts.read_batch_gap_bytes, IoCostModel::Ssd().random_request_bytes);
}

TEST(Device, ReadVAtScattersOneAccountedRequest) {
  TempDir dir;
  auto device = MakeSimulatedDevice();
  {
    DeviceFile f = ValueOrDie(device->Open(dir.Sub("v"), OpenMode::kWrite));
    ASSERT_OK(f.WriteAt(0, Pattern(8192)));
  }
  device->ResetAccounting();
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("v"), OpenMode::kRead));
  const std::vector<std::uint8_t> expected = Pattern(8192);
  std::vector<std::uint8_t> a(100), b(1), c(3000);
  const std::span<std::uint8_t> bufs[] = {a, b, c};
  ASSERT_OK(f.ReadVAt(37, bufs));
  EXPECT_TRUE(std::equal(a.begin(), a.end(), expected.begin() + 37));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), expected.begin() + 137));
  EXPECT_TRUE(std::equal(c.begin(), c.end(), expected.begin() + 138));
  const auto s = device->stats().Snapshot();
  EXPECT_EQ(s.rand_read_ops, 1u);  // one request, not three
  EXPECT_EQ(s.rand_read_bytes, 3101u);
  EXPECT_EQ(s.vectored_reads, 1u);
  // A follow-up starting where the scatter ended classifies sequential.
  ASSERT_OK(f.ReadAt(37 + 3101, a));
  EXPECT_EQ(device->stats().Snapshot().seq_read_ops, 1u);
}

TEST(Device, DirectIoReadsBounceWhenUnaligned) {
  TempDir dir;
  // 2.5 aligned blocks, so the tail read also exercises the EOF-short
  // covering range.
  const std::vector<std::uint8_t> expected = Pattern(10240);
  auto writer = MakePosixDevice();
  {
    DeviceFile f = ValueOrDie(writer->Open(dir.Sub("d"), OpenMode::kWrite));
    ASSERT_OK(f.WriteAt(0, expected));
  }
  auto device = ValueOrDie(MakeDeviceForKind("real:ssd"));
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("d"), OpenMode::kRead));
  std::vector<std::uint8_t> buf(5000);
  ASSERT_OK(f.ReadAt(4321, buf));  // unaligned offset and size
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), expected.begin() + 4321));
  std::vector<std::uint8_t> tail(100);
  ASSERT_OK(f.ReadAt(10240 - 100, tail));  // window ends exactly at EOF
  EXPECT_TRUE(
      std::equal(tail.begin(), tail.end(), expected.begin() + 10240 - 100));
  // Whether the filesystem honored O_DIRECT or fell back to buffered I/O,
  // logical accounting is identical; the bounce counter only moves on a
  // real direct descriptor.
  const auto s = device->stats().Snapshot();
  EXPECT_EQ(s.TotalReadBytes(), 5100u);
  std::vector<std::uint8_t> a(64), b(256);
  const std::span<std::uint8_t> bufs[] = {a, b};
  ASSERT_OK(f.ReadVAt(1, bufs));
  EXPECT_TRUE(std::equal(a.begin(), a.end(), expected.begin() + 1));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), expected.begin() + 65));
}

// A vectored read whose offset and buffers are all 4 KiB-aligned goes
// straight to preadv on a direct-I/O file; any unaligned piece sends the
// whole request through a bounce buffer. Both deliver the same bytes.
TEST(Device, DirectIoAlignedVectoredReadSkipsBounce) {
  TempDir dir;
  const std::vector<std::uint8_t> expected = Pattern(5 * kDirectIoAlignment);
  auto writer = MakePosixDevice();
  {
    DeviceFile f = ValueOrDie(writer->Open(dir.Sub("v"), OpenMode::kWrite));
    ASSERT_OK(f.WriteAt(0, expected));
  }
  auto device = ValueOrDie(MakeDeviceForKind("real:ssd"));
  DeviceFile f = ValueOrDie(device->Open(dir.Sub("v"), OpenMode::kRead));
  AlignedBuffer a(kDirectIoAlignment);
  AlignedBuffer b(2 * kDirectIoAlignment);
  const std::span<std::uint8_t> aligned[] = {a.span(), b.span()};
  ASSERT_OK(f.ReadVAt(kDirectIoAlignment, aligned));
  IoStatsSnapshot s = device->stats().Snapshot();
  EXPECT_EQ(s.vectored_reads, 1u);
  EXPECT_EQ(s.bounce_reads, 0u);
  EXPECT_EQ(s.TotalReadBytes(), 3 * kDirectIoAlignment);

  std::vector<std::uint8_t> c(kDirectIoAlignment);
  std::vector<std::uint8_t> d(2 * kDirectIoAlignment);
  const std::span<std::uint8_t> unaligned[] = {c, d};
  ASSERT_OK(f.ReadVAt(kDirectIoAlignment, unaligned));
  s = device->stats().Snapshot();
  EXPECT_EQ(s.vectored_reads, 2u);
  EXPECT_LE(s.bounce_reads, 1u);  // 0 where the filesystem refused O_DIRECT
  EXPECT_TRUE(std::equal(a.span().begin(), a.span().end(), c.begin()));
  EXPECT_TRUE(std::equal(b.span().begin(), b.span().end(), d.begin()));
  EXPECT_TRUE(std::equal(c.begin(), c.end(),
                         expected.begin() + kDirectIoAlignment));
  EXPECT_TRUE(std::equal(d.begin(), d.end(),
                         expected.begin() + 2 * kDirectIoAlignment));
}

}  // namespace
}  // namespace graphsd::io
