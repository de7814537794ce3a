// Tier-1 coverage for the durability layer (docs/durability.md): CRC32C
// known answers, record framing, torn-tail truncation at EVERY byte offset
// of the last record, checksum-corruption handling, snapshot round-trip
// and rejection, compaction equivalence, persisted snapshot-version
// monotonicity across reopen, the wedge-on-failure policy, and replay of
// the checked-in torn-tail corpus case. The long-running adversarial entry
// point is tools/cqp_crashfuzz; this file keeps the deterministic slice in
// ctest.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "server/profile_store.h"
#include "storage/journal/coding.h"
#include "storage/journal/faulty_file.h"
#include "storage/journal/file.h"
#include "storage/journal/journal.h"
#include "storage/journal/snapshot.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"

namespace cqp {
namespace {

using storage::FaultyFileSystem;
using storage::FileSystem;
using storage::PosixFileSystem;
using storage::journal::DropTornTail;
using storage::journal::FrameRecord;
using storage::journal::kRecordHeaderBytes;
using storage::journal::ReadSnapshot;
using storage::journal::Replay;
using storage::journal::ReplayBuffer;
using storage::journal::ReplayResult;
using storage::journal::SnapshotData;
using storage::journal::SnapshotEntry;
using storage::journal::Writer;

/// RAII temp directory for the on-disk tests.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/cqp_journal_test.XXXXXX";
    path_ = ::mkdtemp(buf);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> Collect(std::string_view buffer,
                                 ReplayResult* result) {
  std::vector<std::string> payloads;
  auto replayed = ReplayBuffer(buffer, [&](std::string_view payload) {
    payloads.emplace_back(payload);
    return Status::OK();
  });
  EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
  if (replayed.ok()) *result = *replayed;
  return payloads;
}

// ---------------------------------------------------------------- crc32c

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC-32C check value (RFC 3720 / iSCSI test vector).
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  EXPECT_EQ(crc32c::Value("", 0), 0u);
  // Incremental Extend must equal one-shot Value.
  uint32_t split = crc32c::Extend(crc32c::Extend(0, "12345", 5), "6789", 4);
  EXPECT_EQ(split, crc32c::Value("123456789", 9));
}

TEST(Crc32c, MaskRoundTripsAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xe3069283u, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

// ---------------------------------------------------------------- coding

TEST(Coding, FixedAndLengthPrefixedRoundTrip) {
  std::string buf;
  storage::PutFixed32(&buf, 0xdeadbeefu);
  storage::PutFixed64(&buf, 0x0123456789abcdefull);
  storage::PutLengthPrefixed(&buf, "hello");
  storage::PutLengthPrefixed(&buf, "");
  EXPECT_EQ(storage::GetFixed32(buf.data()), 0xdeadbeefu);
  EXPECT_EQ(storage::GetFixed64(buf.data() + 4), 0x0123456789abcdefull);
  size_t pos = 12;
  std::string_view s;
  ASSERT_TRUE(storage::GetLengthPrefixed(buf, &pos, &s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(storage::GetLengthPrefixed(buf, &pos, &s));
  EXPECT_EQ(s, "");
  EXPECT_EQ(pos, buf.size());
  EXPECT_FALSE(storage::GetLengthPrefixed(buf, &pos, &s));  // exhausted
}

// --------------------------------------------------------------- framing

TEST(Journal, RoundTripMultipleRecords) {
  std::string buffer;
  std::vector<std::string> want = {"alpha", "", "a longer third record",
                                   std::string(1000, 'x')};
  for (const std::string& payload : want) buffer += FrameRecord(payload);

  ReplayResult result;
  EXPECT_EQ(Collect(buffer, &result), want);
  EXPECT_EQ(result.records, want.size());
  EXPECT_EQ(result.valid_bytes, buffer.size());
  EXPECT_EQ(result.dropped_bytes, 0u);
  EXPECT_FALSE(result.torn_tail);
}

TEST(Journal, TornTailTruncationAtEveryByteOffsetOfLastRecord) {
  // The load-bearing recovery property: wherever a crash tears the last
  // record — inside the length field, the checksum, or the payload — the
  // clean prefix replays in full and the tail is identified exactly.
  const std::string first = FrameRecord("first record");
  const std::string second = FrameRecord("second record");
  const std::string last = FrameRecord("the record a crash tears");
  const std::string clean = first + second;

  for (size_t torn = 0; torn < last.size(); ++torn) {
    std::string buffer = clean + last.substr(0, torn);
    ReplayResult result;
    std::vector<std::string> payloads = Collect(buffer, &result);
    ASSERT_EQ(payloads.size(), 2u) << "torn at offset " << torn;
    EXPECT_EQ(result.valid_bytes, clean.size()) << "torn at offset " << torn;
    EXPECT_EQ(result.dropped_bytes, torn) << "torn at offset " << torn;
    EXPECT_EQ(result.torn_tail, torn > 0) << "torn at offset " << torn;
  }
  // And the whole last record present = clean replay of all three.
  ReplayResult result;
  EXPECT_EQ(Collect(clean + last, &result).size(), 3u);
  EXPECT_FALSE(result.torn_tail);
}

TEST(Journal, CorruptChecksumEndsTheLog) {
  const std::string first = FrameRecord("good");
  std::string bad = FrameRecord("about to be corrupted");
  bad[kRecordHeaderBytes + 3] ^= 0x40;  // flip one payload bit
  const std::string tail = FrameRecord("unreachable after corruption");

  ReplayResult result;
  std::vector<std::string> payloads = Collect(first + bad + tail, &result);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "good");
  EXPECT_EQ(result.valid_bytes, first.size());
  // Everything from the corrupt record on is indistinguishable from a torn
  // tail and is dropped — including records after it.
  EXPECT_EQ(result.dropped_bytes, bad.size() + tail.size());
  EXPECT_TRUE(result.torn_tail);
}

TEST(Journal, InsaneLengthFieldIsCorruptionNotAnAllocation) {
  std::string buffer;
  storage::PutFixed32(&buffer, 0xfffffff0u);  // ~4 GiB "record"
  storage::PutFixed32(&buffer, 0x12345678u);
  buffer += "some bytes";
  ReplayResult result;
  EXPECT_TRUE(Collect(buffer, &result).empty());
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_TRUE(result.torn_tail);
}

TEST(Journal, WriterReplayDropTornTailReopenCycle) {
  TempDir dir;
  FileSystem& fs = PosixFileSystem();
  const std::string path = dir.path() + "/journal";

  {
    auto writer = Writer::Open(fs, path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("one").ok());
    ASSERT_TRUE((*writer)->Append("two").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // Tear the file mid-record, as a crash would.
  auto size = fs.FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(fs.Truncate(path, *size - 2).ok());

  std::vector<std::string> payloads;
  auto replayed = Replay(fs, path, [&](std::string_view p) {
    payloads.emplace_back(p);
    return Status::OK();
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(payloads, std::vector<std::string>{"one"});
  EXPECT_TRUE(replayed->torn_tail);
  ASSERT_TRUE(DropTornTail(fs, path, *replayed).ok());

  // The truncated journal must be appendable again and replay clean.
  {
    auto writer = Writer::Open(fs, path);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ((*writer)->end_offset(), replayed->valid_bytes);
    ASSERT_TRUE((*writer)->Append("three").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  payloads.clear();
  replayed = Replay(fs, path, [&](std::string_view p) {
    payloads.emplace_back(p);
    return Status::OK();
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(payloads, (std::vector<std::string>{"one", "three"}));
  EXPECT_FALSE(replayed->torn_tail);
}

TEST(Journal, CheckedInTornTailCorpusReplays) {
  // The minimized crash artifact from cqp_crashfuzz: two intact records,
  // then a third torn mid-payload. Pinned as bytes on disk so a framing or
  // checksum change that breaks old journals fails here, loudly.
  std::ifstream in(std::string(CQP_CORPUS_DIR) + "/journal_torn_tail.journal",
                   std::ios::binary);
  ASSERT_TRUE(in) << "corpus file missing";
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  ASSERT_EQ(buffer.size(), 89u);

  ReplayResult result;
  std::vector<std::string> payloads = Collect(buffer, &result);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "P profile-alpha v1");
  EXPECT_EQ(payloads[1], "R profile-alpha v2");
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.valid_bytes, 52u);
}

// -------------------------------------------------------------- snapshot

TEST(Snapshot, RoundTrip) {
  TempDir dir;
  FileSystem& fs = PosixFileSystem();
  const std::string path = dir.path() + "/snapshot";

  SnapshotData data;
  data.next_version = 42;
  data.entries.push_back(SnapshotEntry{"a", 7, "profile text a"});
  data.entries.push_back(SnapshotEntry{"b", 41, ""});
  ASSERT_TRUE(WriteSnapshot(fs, path, data).ok());

  auto read = ReadSnapshot(fs, path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->next_version, 42u);
  ASSERT_EQ(read->entries.size(), 2u);
  EXPECT_EQ(read->entries[0].key, "a");
  EXPECT_EQ(read->entries[0].version, 7u);
  EXPECT_EQ(read->entries[0].value, "profile text a");
  EXPECT_EQ(read->entries[1].key, "b");
  EXPECT_EQ(read->entries[1].value, "");
}

TEST(Snapshot, MissingIsNotFoundCorruptIsInternal) {
  TempDir dir;
  FileSystem& fs = PosixFileSystem();
  const std::string path = dir.path() + "/snapshot";
  EXPECT_EQ(ReadSnapshot(fs, path).status().code(), StatusCode::kNotFound);

  SnapshotData data;
  data.entries.push_back(SnapshotEntry{"a", 1, "text"});
  ASSERT_TRUE(WriteSnapshot(fs, path, data).ok());
  auto raw = fs.ReadFile(path);
  ASSERT_TRUE(raw.ok());

  // Flip a byte: snapshots are written atomically, so corruption is a real
  // error, never a recoverable crash artifact.
  std::string corrupt = *raw;
  corrupt[corrupt.size() / 2] ^= 0x01;
  std::ofstream(path, std::ios::binary).write(corrupt.data(), corrupt.size());
  EXPECT_EQ(ReadSnapshot(fs, path).status().code(), StatusCode::kInternal);

  // Truncation is equally fatal.
  std::ofstream(path, std::ios::binary).write(raw->data(), raw->size() / 2);
  EXPECT_EQ(ReadSnapshot(fs, path).status().code(), StatusCode::kInternal);
}

// ------------------------------------------ a one-shard ProfileStore on disk

class DurableStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::MovieDbConfig movie_config;
    movie_config.n_movies = 150;
    movie_config.n_directors = 15;
    movie_config.n_actors = 30;
    auto built = workload::BuildMovieDatabase(movie_config);
    ASSERT_TRUE(built.ok());
    db_ = new storage::Database(*std::move(built));

    profiles_ = new std::vector<prefs::Profile>();
    for (uint64_t seed : {11u, 12u, 13u}) {
      workload::ProfileGenConfig config;
      config.seed = seed;
      config.n_genre_prefs = 3;
      config.n_director_prefs = 2;
      config.n_actor_prefs = 2;
      config.n_year_prefs = 2;
      config.n_duration_prefs = 1;
      auto profile = workload::GenerateProfile(config, movie_config);
      ASSERT_TRUE(profile.ok());
      profiles_->push_back(*std::move(profile));
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete profiles_;
    profiles_ = nullptr;
  }
  void TearDown() override { failpoint::Reset(); }

  server::StoreOptions Options(const std::string& dir) {
    server::StoreOptions options;
    options.dir = dir;
    options.num_shards = 1;
    return options;
  }

  static server::JournalStats Journal(const server::ProfileStore& store) {
    return store.stats().total.journal;
  }

  static storage::Database* db_;
  static std::vector<prefs::Profile>* profiles_;
};

storage::Database* DurableStoreTest::db_ = nullptr;
std::vector<prefs::Profile>* DurableStoreTest::profiles_ = nullptr;

TEST_F(DurableStoreTest, MutationsSurviveReopen) {
  TempDir dir;
  auto options = Options(dir.path());
  {
    auto store = server::ProfileStore::Open(db_, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put("alice", (*profiles_)[0]).ok());
    ASSERT_TRUE((*store)->Put("bob", (*profiles_)[1]).ok());
    ASSERT_TRUE((*store)->Put("alice", (*profiles_)[2]).ok());  // replace
    ASSERT_TRUE((*store)->Remove("bob").ok());
  }
  auto reopened = server::ProfileStore::Open(db_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Ids(), std::vector<std::string>{"alice"});
  // The replace won: version 3 (put, put, replace-put, remove consumed 4).
  EXPECT_EQ((*reopened)->FindSnapshot("alice").version, 3u);
  EXPECT_NE((*reopened)->Find("alice"), nullptr);
  EXPECT_EQ(Journal(**reopened).replayed_records, 4u);
  EXPECT_FALSE(Journal(**reopened).torn_tail_recovered);
}

TEST_F(DurableStoreTest, VersionsStayMonotonicAcrossReopen) {
  TempDir dir;
  auto options = Options(dir.path());
  uint64_t last = 0;
  {
    auto store = server::ProfileStore::Open(db_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", (*profiles_)[0]).ok());
    ASSERT_TRUE((*store)->Remove("a").ok());  // removes consume versions too
    ASSERT_TRUE((*store)->Put("a", (*profiles_)[1]).ok());
    last = (*store)->FindSnapshot("a").version;
    EXPECT_EQ(last, 3u);
  }
  // Across restarts — including after compaction — a new Put must always
  // version above everything that ever existed, or version-keyed caches
  // (EvalCacheRegistry, PlanCache) could alias pre-restart entries.
  for (int round = 0; round < 3; ++round) {
    auto store = server::ProfileStore::Open(db_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", (*profiles_)[round % 3]).ok());
    uint64_t version = (*store)->FindSnapshot("a").version;
    EXPECT_GT(version, last);
    last = version;
    if (round == 1) {
      ASSERT_TRUE((*store)->Compact().ok());
    }
  }
}

TEST_F(DurableStoreTest, CompactionPreservesContentsAndTruncatesJournal) {
  TempDir dir;
  auto options = Options(dir.path());
  auto store = server::ProfileStore::Open(db_, options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        (*store)->Put("u" + std::to_string(i % 3), (*profiles_)[i % 3]).ok());
  }
  ASSERT_TRUE((*store)->Remove("u2").ok());
  auto before = (*store)->Contents();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  ASSERT_TRUE((*store)->Compact().ok());
  const server::JournalStats stats = Journal(**store);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.journal_bytes, 0u);  // journal truncated
  EXPECT_GT(stats.snapshot_bytes, 0u);

  // Equivalence: compaction changes the representation, never the state —
  // neither live (post-compaction) nor recovered (reopen from snapshot).
  auto expect_same = [&](const std::vector<SnapshotEntry>& got) {
    ASSERT_EQ(got.size(), before->size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, (*before)[i].key);
      EXPECT_EQ(got[i].version, (*before)[i].version);
      EXPECT_EQ(got[i].value, (*before)[i].value);
    }
  };
  auto after = (*store)->Contents();
  ASSERT_TRUE(after.ok());
  expect_same(*after);

  auto reopened = server::ProfileStore::Open(db_, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Journal(**reopened).recovered_profiles, before->size());
  EXPECT_EQ(Journal(**reopened).replayed_records, 0u);  // all from snapshot
  auto recovered = (*reopened)->Contents();
  ASSERT_TRUE(recovered.ok());
  expect_same(*recovered);
}

TEST_F(DurableStoreTest, AutomaticCompactionTriggersOnThreshold) {
  TempDir dir;
  auto options = Options(dir.path());
  options.compact_threshold_bytes = 2000;
  auto store = server::ProfileStore::Open(db_, options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*store)->Put("u", (*profiles_)[i % 3]).ok());
  }
  const server::JournalStats stats = Journal(**store);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_LE(stats.journal_bytes, 2000u + 2048u);  // bounded, not unbounded
}

TEST_F(DurableStoreTest, FsyncFailureWedgesTheStoreUntilReopen) {
  // Every fsync fails once the failpoint arms — fsyncgate: the store must
  // refuse further writes rather than acknowledge maybe-lost data. The
  // sync failpoint site lives in FaultyFile, so the store runs on a
  // FaultyFileSystem.
  TempDir faulty_dir;
  FaultyFileSystem fs(PosixFileSystem());
  auto faulty_options = Options(faulty_dir.path());
  faulty_options.fs = &fs;
  auto faulty = server::ProfileStore::Open(db_, faulty_options);
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE((*faulty)->Put("a", (*profiles_)[0]).ok());

  ASSERT_TRUE(failpoint::Configure("storage.file.sync.fail=1.0:1").ok());
  Status failed = (*faulty)->Put("b", (*profiles_)[1]);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE((*faulty)->wedged());
  // An error means NOT applied — 'b' must not serve.
  EXPECT_EQ((*faulty)->Find("b"), nullptr);
  // Wedged = read-only: further writes fail fast, reads keep working.
  EXPECT_FALSE((*faulty)->Put("c", (*profiles_)[2]).ok());
  EXPECT_NE((*faulty)->Find("a"), nullptr);

  // Reopen recovers everything acknowledged before the wedge. The failed
  // Put's record reached the file before its fsync failed, so it MAY also
  // reappear (the client was told "failed", which promises nothing either
  // way — same contract as a real torn fsync); what recovery must never do
  // is lose 'a' or corrupt anything.
  failpoint::Reset();
  auto reopened = server::ProfileStore::Open(db_, faulty_options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->wedged());
  EXPECT_NE((*reopened)->Find("a"), nullptr);
  ASSERT_TRUE((*reopened)->Put("c", (*profiles_)[2]).ok());
}

TEST_F(DurableStoreTest, TornJournalTailRecoversToAcknowledgedPrefix) {
  TempDir dir;
  auto options = Options(dir.path());
  {
    auto store = server::ProfileStore::Open(db_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("keep", (*profiles_)[0]).ok());
    ASSERT_TRUE((*store)->Put("torn", (*profiles_)[1]).ok());
  }
  // Tear the last record on disk, as a crash mid-append would.
  FileSystem& fs = PosixFileSystem();
  const std::string journal = dir.path() + "/" +
                              server::ProfileStore::ShardDirName(0) +
                              "/journal";
  auto size = fs.FileSize(journal);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(fs.Truncate(journal, *size - 5).ok());

  auto reopened = server::ProfileStore::Open(db_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The stats surface the recovery.
  EXPECT_TRUE(Journal(**reopened).torn_tail_recovered);
  EXPECT_GT(Journal(**reopened).dropped_bytes, 0u);
  EXPECT_EQ((*reopened)->Ids(), std::vector<std::string>{"keep"});
}

}  // namespace
}  // namespace cqp
