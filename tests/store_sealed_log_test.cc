// Integrity tests for the sealed persistent store (DESIGN.md §5k): the
// hash-chained log must convert every physical failure mode — torn write,
// silent bit flip, mid-frame truncation, spliced-in replay of a stale
// record — into a *detected* damaged tail that salvages the longest valid
// prefix. A damaged store may cost a device its resume; it must never hand
// recovery a record that did not verify.

#include "store/sealed_log.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "tee/enclave.h"

namespace edgelet::store {
namespace {

Bytes Blob(const std::string& s) { return Bytes(s.begin(), s.end()); }

class SealedLogTest : public ::testing::Test {
 protected:
  SealedLogTest() : authority_(42) {
    authority_.set_expected_measurement(
        crypto::Sha256::Hash("edgelet-query-v1"));
  }

  tee::Enclave MakeEnclave(uint64_t id) {
    tee::Enclave e(id, "edgelet-query-v1", &authority_);
    EXPECT_TRUE(e.Provision().ok());
    return e;
  }

  tee::TrustAuthority authority_;
};

TEST_F(SealedLogTest, AppendReplayRoundTrip) {
  tee::Enclave enclave = MakeEnclave(1);
  MemoryMedium medium;
  SealedLog log(&enclave, &medium);

  ASSERT_TRUE(log.Append(Blob("epoch-0")).ok());
  ASSERT_TRUE(log.Append(Blob("epoch-1")).ok());
  ASSERT_TRUE(log.Append(Blob("epoch-2")).ok());
  EXPECT_EQ(log.records_appended(), 3u);
  EXPECT_EQ(medium.syncs(), 3u);

  // A fresh log object over the same medium models the post-reboot world:
  // the in-memory chain head is gone, the bytes are not.
  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kClean);
  EXPECT_EQ(replay->bytes_discarded, 0u);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0], Blob("epoch-0"));
  EXPECT_EQ(replay->records[2], Blob("epoch-2"));

  // Replay re-arms the chain: appends continue past the salvaged prefix.
  ASSERT_TRUE(rebooted.Append(Blob("epoch-3")).ok());
  SealedLog again(&enclave, &medium);
  auto replay2 = again.Replay();
  ASSERT_TRUE(replay2.ok());
  EXPECT_EQ(replay2->tail, LogTailState::kClean);
  ASSERT_EQ(replay2->records.size(), 4u);
  EXPECT_EQ(replay2->records[3], Blob("epoch-3"));
}

// Damage helper: appends `n` records on a fault-free medium and returns
// the byte offset where each frame starts (frame i spans
// [offsets[i], offsets[i+1])), so tests can damage a precise frame.
std::vector<size_t> AppendFrames(tee::Enclave* enclave, MemoryMedium* medium,
                                 SealedLog* log, size_t n) {
  std::vector<size_t> offsets;
  for (size_t i = 0; i < n; ++i) {
    offsets.push_back(static_cast<size_t>(medium->bytes_persisted()));
    EXPECT_TRUE(log->Append(Blob("record-" + std::to_string(i))).ok());
  }
  offsets.push_back(static_cast<size_t>(medium->bytes_persisted()));
  return offsets;
}

TEST_F(SealedLogTest, TornFinalWriteSalvagesPrefix) {
  tee::Enclave enclave = MakeEnclave(1);
  MemoryMedium medium;
  SealedLog log(&enclave, &medium);
  std::vector<size_t> at = AppendFrames(&enclave, &medium, &log, 3);

  // Power loss mid-write: only part of the last frame made it to media.
  Bytes raw = *medium.ReadAll();
  size_t torn_len = at[2] + (at[3] - at[2]) / 2;
  ASSERT_TRUE(medium.Rewrite(Bytes(raw.begin(), raw.begin() + torn_len)).ok());

  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kTorn);
  EXPECT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->bytes_discarded, torn_len - at[2]);
  // Salvage compacted the medium back to the valid prefix; the log is
  // append-ready again and the next replay is clean.
  EXPECT_EQ(medium.bytes_persisted(), at[2]);
  ASSERT_TRUE(rebooted.Append(Blob("after-tear")).ok());
  SealedLog verify(&enclave, &medium);
  auto replay2 = verify.Replay();
  ASSERT_TRUE(replay2.ok());
  EXPECT_EQ(replay2->tail, LogTailState::kClean);
  EXPECT_EQ(replay2->records.size(), 3u);
}

TEST_F(SealedLogTest, TruncationMidHeaderDetected) {
  tee::Enclave enclave = MakeEnclave(1);
  MemoryMedium medium;
  SealedLog log(&enclave, &medium);
  std::vector<size_t> at = AppendFrames(&enclave, &medium, &log, 2);

  // Truncate inside the final frame's header — fewer bytes than even the
  // fixed header needs.
  Bytes raw = *medium.ReadAll();
  ASSERT_GT(kLogHeaderBytes, 8u);
  ASSERT_TRUE(
      medium.Rewrite(Bytes(raw.begin(), raw.begin() + at[1] + 8)).ok());

  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kTorn);
  EXPECT_EQ(replay->records.size(), 1u);
}

TEST_F(SealedLogTest, BitFlipInPayloadDetected) {
  tee::Enclave enclave = MakeEnclave(1);
  MemoryMedium medium;
  SealedLog log(&enclave, &medium);
  std::vector<size_t> at = AppendFrames(&enclave, &medium, &log, 3);

  // Silent media corruption: one bit flips inside the middle frame's
  // sealed payload. The chain breaks there; the prefix before it salvages.
  Bytes raw = *medium.ReadAll();
  raw[at[1] + kLogHeaderBytes + 3] ^= 0x10;
  ASSERT_TRUE(medium.Rewrite(raw).ok());

  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kCorrupt);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0], Blob("record-0"));
  EXPECT_GT(replay->bytes_discarded, 0u);
}

TEST_F(SealedLogTest, BitFlipInHeaderDetected) {
  tee::Enclave enclave = MakeEnclave(1);
  MemoryMedium medium;
  SealedLog log(&enclave, &medium);
  std::vector<size_t> at = AppendFrames(&enclave, &medium, &log, 2);

  // Corrupt the seq field of the last frame's header.
  Bytes raw = *medium.ReadAll();
  raw[at[1] + 4] ^= 0x01;
  ASSERT_TRUE(medium.Rewrite(raw).ok());

  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kCorrupt);
  EXPECT_EQ(replay->records.size(), 1u);
}

TEST_F(SealedLogTest, ReplayedStaleFrameDetected) {
  tee::Enclave enclave = MakeEnclave(1);
  MemoryMedium medium;
  SealedLog log(&enclave, &medium);
  std::vector<size_t> at = AppendFrames(&enclave, &medium, &log, 3);

  // A rollback/splice attack: re-append a byte-perfect copy of the first
  // (stale) frame at the tail. Its AEAD tag verifies, but the hash chain
  // pins order — seq and chain head both mismatch at the splice point.
  Bytes raw = *medium.ReadAll();
  Bytes stale(raw.begin() + at[0], raw.begin() + at[1]);
  Bytes spliced = raw;
  spliced.insert(spliced.end(), stale.begin(), stale.end());
  ASSERT_TRUE(medium.Rewrite(spliced).ok());

  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kCorrupt);
  EXPECT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->bytes_discarded, at[1] - at[0]);
}

TEST_F(SealedLogTest, ForeignEnclaveCannotUnseal) {
  tee::Enclave writer = MakeEnclave(1);
  MemoryMedium medium;
  SealedLog log(&writer, &medium);
  AppendFrames(&writer, &medium, &log, 2);

  // A different enclave identity (different sealing key) finds the chain
  // but cannot unseal a single record: everything is discarded, nothing
  // bogus is returned.
  tee::Enclave thief = MakeEnclave(2);
  SealedLog foreign(&thief, &medium);
  auto replay = foreign.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kCorrupt);
  EXPECT_TRUE(replay->records.empty());
}

TEST_F(SealedLogTest, InjectedTornWritesAreDetectedNotMasked) {
  tee::Enclave enclave = MakeEnclave(7);
  // Every append tears: the medium persists only a strict prefix of each
  // frame while still reporting OK — exactly what a power cut does.
  MediumFaultConfig faults;
  faults.torn_write_probability = 1.0;
  faults.seed = 11;
  MemoryMedium medium(faults, /*owner_id=*/7);
  SealedLog log(&enclave, &medium);
  ASSERT_TRUE(log.Append(Blob("doomed")).ok());
  EXPECT_GE(medium.faults_injected(), 1u);

  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_NE(replay->tail, LogTailState::kClean);
  EXPECT_TRUE(replay->records.empty());
}

TEST_F(SealedLogTest, InjectedBitFlipsAreDetectedNotMasked) {
  tee::Enclave enclave = MakeEnclave(9);
  MediumFaultConfig faults;
  faults.bit_flip_probability = 1.0;
  faults.seed = 13;
  MemoryMedium medium(faults, /*owner_id=*/9);
  SealedLog log(&enclave, &medium);
  ASSERT_TRUE(log.Append(Blob("flipped")).ok());
  EXPECT_GE(medium.faults_injected(), 1u);

  SealedLog rebooted(&enclave, &medium);
  auto replay = rebooted.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_NE(replay->tail, LogTailState::kClean);
  EXPECT_TRUE(replay->records.empty());
}

TEST_F(SealedLogTest, FaultScheduleIsDeterministicPerOwner) {
  MediumFaultConfig faults;
  faults.torn_write_probability = 0.5;
  faults.seed = 99;
  MemoryMedium a(faults, /*owner_id=*/3);
  MemoryMedium b(faults, /*owner_id=*/3);
  Bytes frame(64, 0xAB);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(a.Append(frame).ok());
    ASSERT_TRUE(b.Append(frame).ok());
  }
  // Same owner, same seed: identical fault schedule (replayable chaos).
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.bytes_persisted(), b.bytes_persisted());
  EXPECT_GT(a.faults_injected(), 0u)
      << "expected at least one injected fault at p=0.5 over 32 appends";
}

TEST_F(SealedLogTest, FileMediumSurvivesProcessRestart) {
  tee::Enclave enclave = MakeEnclave(5);
  // Per process: the plain, ASan and TSan builds of this test run in
  // parallel under ctest -j and must not share the file.
  const std::string path = ::testing::TempDir() +
                           "/sealed_log_file_medium_test." +
                           std::to_string(getpid()) + ".log";
  std::remove(path.c_str());
  {
    FileMedium medium(path);
    ASSERT_TRUE(medium.Truncate().ok());
    SealedLog log(&enclave, &medium);
    ASSERT_TRUE(log.Append(Blob("durable-0")).ok());
    ASSERT_TRUE(log.Append(Blob("durable-1")).ok());
  }
  // A brand-new medium object on the same path models a real process
  // restart; the bytes must still be there and verify.
  FileMedium medium(path);
  SealedLog log(&enclave, &medium);
  auto replay = log.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, LogTailState::kClean);
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[1], Blob("durable-1"));
  ASSERT_TRUE(medium.Truncate().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace edgelet::store
