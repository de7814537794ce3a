#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "server/serve_flags.h"

namespace cqp::server {
namespace {

/// Parses `args` (without the program name) into a fresh ServeFlags.
bool Parse(std::vector<std::string> args, ServeFlags* flags) {
  std::vector<char*> argv{const_cast<char*>("cqp_serve")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseServeFlags(static_cast<int>(argv.size()), argv.data(), flags);
}

bool Accepts(const std::string& flag, const std::string& value) {
  ServeFlags flags;
  return Parse({flag, value}, &flags);
}

TEST(ServeFlagsTest, DefaultsAndTypicalValues) {
  ServeFlags flags;
  ASSERT_TRUE(Parse({}, &flags));
  EXPECT_EQ(flags.port, 7433);
  ASSERT_TRUE(Parse({"--port", "0", "--movies", "2000", "--threads", "4",
                     "--io-threads", "1", "--write-queue-kb", "64",
                     "--max-pending", "512", "--soft-pending", "128",
                     "--shards", "8", "--resident-mb", "64",
                     "--compact-mb", "0.5", "--data-dir", "/d"},
                    &flags));
  EXPECT_EQ(flags.port, 0);
  EXPECT_EQ(flags.movies, 2000);
  EXPECT_EQ(flags.threads, 4u);
  EXPECT_EQ(flags.io_threads, 1u);
  EXPECT_EQ(flags.write_queue_kb, 64u);
  EXPECT_EQ(flags.max_pending, 512u);
  EXPECT_EQ(flags.soft_pending, 128u);
  EXPECT_EQ(flags.shards, 8u);
  EXPECT_EQ(flags.resident_mb, 64.0);
  EXPECT_EQ(flags.compact_mb, 0.5);
  EXPECT_EQ(flags.data_dir, "/d");
}

TEST(ServeFlagsTest, PortIsAWholeNumberUpTo65535) {
  EXPECT_TRUE(Accepts("--port", "65535"));
  EXPECT_FALSE(Accepts("--port", "65536"));
  EXPECT_FALSE(Accepts("--port", "-1"));
  EXPECT_FALSE(Accepts("--port", "80.5"));
  EXPECT_FALSE(Accepts("--port", "1e10"));
  EXPECT_FALSE(Accepts("--port", "nan"));
}

TEST(ServeFlagsTest, CountsRejectNegativeFractionalAndOutOfRange) {
  for (const char* flag : {"--threads", "--io-threads", "--max-pending",
                           "--soft-pending", "--shards", "--write-queue-kb"}) {
    SCOPED_TRACE(flag);
    EXPECT_TRUE(Accepts(flag, "0"));
    EXPECT_FALSE(Accepts(flag, "-1"));
    EXPECT_FALSE(Accepts(flag, "2.5"));
    EXPECT_FALSE(Accepts(flag, "inf"));
    EXPECT_FALSE(Accepts(flag, "nan"));
    // 2^64 is the first value a size_t cannot hold.
    EXPECT_FALSE(Accepts(flag, "18446744073709551616"));
  }
  // The largest double below 2^64 still fits a size_t.
  ServeFlags flags;
  ASSERT_TRUE(Parse({"--max-pending", "18446744073709549568"}, &flags));
  EXPECT_EQ(flags.max_pending, 18446744073709549568ull);
  // The write queue's byte limits (16 watermarks) must fit a size_t too.
  const size_t max_kb = std::numeric_limits<size_t>::max() / (1024 * 16);
  EXPECT_TRUE(Accepts("--write-queue-kb", std::to_string(max_kb)));
  EXPECT_FALSE(Accepts("--write-queue-kb", std::to_string(max_kb + 1)));
}

TEST(ServeFlagsTest, MoviesIsAnInt64) {
  EXPECT_TRUE(Accepts("--movies", "-9223372036854775808"));
  EXPECT_FALSE(Accepts("--movies", "9223372036854775808"));  // 2^63
  EXPECT_FALSE(Accepts("--movies", "1.5"));
  EXPECT_FALSE(Accepts("--movies", "-inf"));
}

TEST(ServeFlagsTest, MegabytesAreFiniteNonNegativeAndFitUint64Bytes) {
  for (const char* flag : {"--resident-mb", "--compact-mb"}) {
    SCOPED_TRACE(flag);
    EXPECT_TRUE(Accepts(flag, "0"));
    EXPECT_TRUE(Accepts(flag, "0.25"));
    EXPECT_FALSE(Accepts(flag, "-1"));
    EXPECT_FALSE(Accepts(flag, "-0.5"));
    EXPECT_FALSE(Accepts(flag, "inf"));
    EXPECT_FALSE(Accepts(flag, "nan"));
    // 2^44 MB is 2^64 bytes.
    EXPECT_FALSE(Accepts(flag, "17592186044416"));
    EXPECT_TRUE(Accepts(flag, "17592186044415"));
  }
}

TEST(ServeFlagsTest, RejectsUnknownFlagsAndMissingOrMalformedValues) {
  ServeFlags flags;
  EXPECT_FALSE(Parse({"--bogus"}, &flags));
  EXPECT_FALSE(Parse({"--bogus", "1"}, &flags));
  EXPECT_FALSE(Parse({"--threads"}, &flags));
  EXPECT_FALSE(Parse({"--threads", "4x"}, &flags));
  EXPECT_FALSE(Parse({"--threads", ""}, &flags));
  EXPECT_FALSE(Parse({"--profiles"}, &flags));
}

TEST(ServeFlagsTest, OutOfRangeKBecomesZeroForStartToReject) {
  ServeFlags flags;
  ASSERT_TRUE(Parse({"--k", "-3"}, &flags));
  EXPECT_EQ(flags.max_k, 0u);
  ASSERT_TRUE(Parse({"--k", "20"}, &flags));
  EXPECT_EQ(flags.max_k, 20u);
}

}  // namespace
}  // namespace cqp::server
