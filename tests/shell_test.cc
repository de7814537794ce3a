#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "shell/shell.h"

namespace cqp::shell {
namespace {

/// Runs one line and returns the output.
std::string RunLine(CqpShell& shell, const std::string& line) {
  std::ostringstream out;
  shell.ProcessLine(line, out);
  return out.str();
}

TEST(ShellTest, HelpListsCommands) {
  CqpShell shell;
  std::string out = RunLine(shell, ".help");
  EXPECT_NE(out.find(".gen"), std::string::npos);
  EXPECT_NE(out.find(".problem"), std::string::npos);
}

TEST(ShellTest, QuitReturnsFalse) {
  CqpShell shell;
  std::ostringstream out;
  EXPECT_FALSE(shell.ProcessLine(".quit", out));
  EXPECT_FALSE(shell.ProcessLine(".exit", out));
  EXPECT_TRUE(shell.ProcessLine("# comment", out));
  EXPECT_TRUE(shell.ProcessLine("   ", out));
}

TEST(ShellTest, UnknownCommandReportsError) {
  CqpShell shell;
  std::string out = RunLine(shell, ".bogus");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(ShellTest, QueryWithoutDatabaseFails) {
  CqpShell shell;
  std::string out = RunLine(shell, "SELECT title FROM MOVIE");
  EXPECT_NE(out.find("no database"), std::string::npos);
}

class ShellWithDbTest : public ::testing::Test {
 protected:
  ShellWithDbTest() {
    std::ostringstream sink;
    // A small database keeps the test fast.
    CQP_CHECK(shell_.ProcessLine(".gen movies 500", sink));
    CQP_CHECK(shell_.has_database());
  }

  CqpShell shell_;
};

TEST_F(ShellWithDbTest, TablesAndSchema) {
  std::string out = RunLine(shell_, ".tables");
  EXPECT_NE(out.find("MOVIE"), std::string::npos);
  EXPECT_NE(out.find("GENRE"), std::string::npos);
  out = RunLine(shell_, ".schema MOVIE");
  EXPECT_NE(out.find("title STRING"), std::string::npos);
  out = RunLine(shell_, ".schema NOPE");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST_F(ShellWithDbTest, RawSqlExecutes) {
  std::string out = RunLine(shell_, ".sql SELECT title FROM MOVIE WHERE MOVIE.mid < 3");
  EXPECT_NE(out.find("Movie 000000"), std::string::npos);
  EXPECT_NE(out.find("(3 rows"), std::string::npos);
}

TEST_F(ShellWithDbTest, EmptyProfileFallsBackToRawExecution) {
  std::string out = RunLine(shell_, "SELECT title FROM MOVIE WHERE MOVIE.mid = 1");
  EXPECT_NE(out.find("unpersonalized"), std::string::npos);
  EXPECT_NE(out.find("(1 rows"), std::string::npos);
}

TEST_F(ShellWithDbTest, FullPersonalizationFlow) {
  EXPECT_EQ(RunLine(shell_, ".profile add doi(GENRE.genre = 'drama') = 0.6"), "");
  EXPECT_EQ(RunLine(shell_, ".profile add doi(MOVIE.mid = GENRE.mid) = 0.9"), "");
  EXPECT_EQ(RunLine(shell_, ".profile add doi(MOVIE.year >= 1980) = 0.5"), "");
  EXPECT_EQ(RunLine(shell_, ".problem 2 cmax=100"), "");
  EXPECT_EQ(RunLine(shell_, ".algorithm C-Boundaries"), "");

  std::string out = RunLine(shell_, ".explain SELECT title FROM MOVIE");
  EXPECT_NE(out.find("preference space: K=2"), std::string::npos);
  EXPECT_NE(out.find("sql:"), std::string::npos);

  out = RunLine(shell_, "SELECT title FROM MOVIE");
  EXPECT_NE(out.find("rows"), std::string::npos);
}

TEST_F(ShellWithDbTest, ExplainShowsSqlBeforeRewriteWhenAPassFires) {
  // Both preferences hold for every generated movie, so under the mined
  // domain constraints their selections are tautologies the optimizer
  // drops.
  EXPECT_EQ(RunLine(shell_, ".profile add doi(MOVIE.year >= 1000) = 0.6"), "");
  EXPECT_EQ(RunLine(shell_, ".profile add doi(MOVIE.duration >= 1) = 0.5"),
            "");
  EXPECT_EQ(RunLine(shell_, ".problem 2 cmax=1e9"), "");

  std::string out = RunLine(shell_, ".explain SELECT title FROM MOVIE");
  EXPECT_EQ(out.find("sql (before rewrite):"), std::string::npos) << out;

  RunLine(shell_, ".constraints derive");
  out = RunLine(shell_, ".explain SELECT title FROM MOVIE");
  EXPECT_NE(out.find("rewrite: "), std::string::npos) << out;
  const size_t before = out.find("sql (before rewrite):\n");
  const size_t after = out.find("\nsql:\n");
  ASSERT_NE(before, std::string::npos) << out;
  ASSERT_NE(after, std::string::npos) << out;
  ASSERT_LT(before, after) << out;
  // The unoptimized text keeps the tautology; the served text does not.
  EXPECT_NE(out.substr(before, after - before).find(">= 1000"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.substr(after).find(">= 1000"), std::string::npos) << out;

  // A query that executes prints no pre-rewrite text.
  out = RunLine(shell_, "SELECT title FROM MOVIE");
  EXPECT_EQ(out.find("sql (before rewrite):"), std::string::npos) << out;
}

TEST_F(ShellWithDbTest, ServeAndConnectRoundTrip) {
  EXPECT_EQ(RunLine(shell_, ".profile add doi(MOVIE.year >= 1990) = 0.7"), "");
  std::string out = RunLine(shell_, ".serve");  // no port = ephemeral
  ASSERT_NE(out.find("serving on 127.0.0.1:"), std::string::npos) << out;
  int port = std::atoi(out.c_str() + out.find(':', out.find("127.0.0.1")) + 1);
  ASSERT_GT(port, 0);

  // While the embedded server holds the database, swapping it is refused.
  EXPECT_NE(RunLine(shell_, ".gen movies 100").find("error:"),
            std::string::npos);
  // A second .serve is too.
  EXPECT_NE(RunLine(shell_, ".serve").find("error:"), std::string::npos);

  // A second shell acts as the client: its queries run remotely.
  CqpShell client;
  std::string connected =
      RunLine(client, ".connect 127.0.0.1:" + std::to_string(port));
  ASSERT_NE(connected.find("connected to"), std::string::npos) << connected;
  std::string answer = RunLine(client, "SELECT title FROM MOVIE");
  EXPECT_NE(answer.find("sql:"), std::string::npos) << answer;
  EXPECT_NE(answer.find("SELECT"), std::string::npos) << answer;
  EXPECT_NE(RunLine(client, ".disconnect").find("disconnected"),
            std::string::npos);

  std::string stopped = RunLine(shell_, ".serve stop");
  EXPECT_NE(stopped.find("server stopped"), std::string::npos) << stopped;
  // With the server gone, .gen works again.
  EXPECT_EQ(RunLine(shell_, ".gen movies 100"), "");
}

TEST_F(ShellWithDbTest, ServeRequiresProfile) {
  EXPECT_NE(RunLine(shell_, ".serve").find("empty profile"), std::string::npos);
  EXPECT_NE(RunLine(shell_, ".serve stop").find("no server running"),
            std::string::npos);
  EXPECT_NE(RunLine(shell_, ".serve 70000").find("error:"), std::string::npos);
}

TEST(ShellTest, ConnectRejectsBadTargets) {
  CqpShell shell;
  EXPECT_NE(RunLine(shell, ".connect nohost").find("error:"),
            std::string::npos);
  EXPECT_NE(RunLine(shell, ".connect 127.0.0.1:notaport").find("error:"),
            std::string::npos);
  EXPECT_NE(RunLine(shell, ".disconnect").find("error:"), std::string::npos);
}

TEST_F(ShellWithDbTest, SettingsReflectChanges) {
  RunLine(shell_, ".problem 4 dmin=0.7");
  RunLine(shell_, ".algorithm MinCost-BB");
  RunLine(shell_, ".k 12");
  std::string out = RunLine(shell_, ".settings");
  EXPECT_NE(out.find("MIN cost"), std::string::npos);
  EXPECT_NE(out.find("MinCost-BB"), std::string::npos);
  EXPECT_NE(out.find("12"), std::string::npos);
}

TEST_F(ShellWithDbTest, RejectsBadProblemAndAlgorithm) {
  EXPECT_NE(RunLine(shell_, ".problem 9").find("error:"), std::string::npos);
  EXPECT_NE(RunLine(shell_, ".problem x").find("error:"), std::string::npos);
  EXPECT_NE(RunLine(shell_, ".algorithm Quantum").find("error:"),
            std::string::npos);
  EXPECT_NE(RunLine(shell_, ".k banana").find("error:"), std::string::npos);
  EXPECT_NE(RunLine(shell_, ".k 99").find("error:"), std::string::npos);
}

TEST_F(ShellWithDbTest, ProfileShowAndClear) {
  RunLine(shell_, ".profile add doi(MOVIE.year >= 1980) = 0.5");
  std::string out = RunLine(shell_, ".profile show");
  EXPECT_NE(out.find("MOVIE.year >= 1980"), std::string::npos);
  RunLine(shell_, ".profile clear");
  EXPECT_EQ(RunLine(shell_, ".profile show"), "");
}

TEST_F(ShellWithDbTest, ProfileRejectsGarbage) {
  std::string out = RunLine(shell_, ".profile add doi(MOVIE.year) = 0.5");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(ShellCsvTest, LoadCsvAndQuery) {
  std::string path = ::testing::TempDir() + "/cqp_shell_test.csv";
  {
    std::ofstream f(path);
    f << "pid,name,price\n1,Widget,9\n2,Gadget,12\n";
  }
  CqpShell shell;
  std::string out =
      RunLine(shell, ".load ITEM(pid INT, name STRING, price INT) " + path);
  EXPECT_EQ(out, "") << out;
  out = RunLine(shell, ".sql SELECT name FROM ITEM WHERE ITEM.price >= 10");
  EXPECT_NE(out.find("Gadget"), std::string::npos);
  EXPECT_NE(out.find("(1 rows"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ShellCsvTest, LoadRejectsBadSchemaSpec) {
  CqpShell shell;
  EXPECT_NE(RunLine(shell, ".load ITEM pid INT x.csv").find("error:"),
            std::string::npos);
  EXPECT_NE(RunLine(shell, ".load ITEM(pid WEIRD) x.csv").find("error:"),
            std::string::npos);
  EXPECT_NE(RunLine(shell, ".load ITEM(pid INT)").find("error:"),
            std::string::npos);
}

TEST_F(ShellWithDbTest, RawSqlAcceptsUnionGroupStatements) {
  std::string out = RunLine(
      shell_,
      ".sql SELECT title FROM ("
      "SELECT DISTINCT title FROM MOVIE WHERE MOVIE.mid < 2 "
      "UNION ALL "
      "SELECT DISTINCT title FROM MOVIE WHERE MOVIE.year >= 1900"
      ") GROUP BY title HAVING COUNT(*) = 2");
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("(2 rows"), std::string::npos) << out;
}

TEST(ShellTouristTest, GenTourist) {
  CqpShell shell;
  std::ostringstream sink;
  ASSERT_TRUE(shell.ProcessLine(".gen tourist", sink));
  std::string out = RunLine(shell, ".tables");
  EXPECT_NE(out.find("RESTAURANT"), std::string::npos);
}

}  // namespace

// ---------- .budget / .failpoints ----------

TEST(ShellTest, BudgetShowsAndSetsLimits) {
  CqpShell shell;
  std::string out = RunLine(shell, ".budget");
  EXPECT_NE(out.find("unlimited"), std::string::npos);

  out = RunLine(shell, ".budget deadline=5 states=1000 memory=2");
  EXPECT_NE(out.find("deadline="), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);

  out = RunLine(shell, ".settings");
  EXPECT_NE(out.find("budget"), std::string::npos);

  out = RunLine(shell, ".budget off");
  out = RunLine(shell, ".budget");
  EXPECT_NE(out.find("unlimited"), std::string::npos);
}

TEST(ShellTest, BudgetRejectsBadInput) {
  CqpShell shell;
  EXPECT_NE(RunLine(shell, ".budget bogus=1").find("error:"),
            std::string::npos);
  EXPECT_NE(RunLine(shell, ".budget deadline=-1").find("error:"),
            std::string::npos);
}

TEST(ShellTest, FailpointsArmListAndDisarm) {
  failpoint::Reset();
  CqpShell shell;
  std::string out = RunLine(shell, ".failpoints");
  EXPECT_NE(out.find("no failpoints armed"), std::string::npos);

  out = RunLine(shell, ".failpoints space.extract=1.0:42");
  EXPECT_NE(out.find("space.extract"), std::string::npos);
  EXPECT_NE(out.find("seed=42"), std::string::npos);

  EXPECT_NE(RunLine(shell, ".failpoints nonsense").find("error:"),
            std::string::npos);

  out = RunLine(shell, ".failpoints off");
  out = RunLine(shell, ".failpoints");
  EXPECT_NE(out.find("no failpoints armed"), std::string::npos);
  failpoint::Reset();
}

TEST_F(ShellWithDbTest, BudgetedQueryReportsDegradation) {
  failpoint::Reset();
  EXPECT_EQ(RunLine(shell_, ".profile add doi(GENRE.genre = 'drama') = 0.6"),
            "");
  EXPECT_EQ(RunLine(shell_, ".problem 2 cmax=1e9"), "");
  // Fault the solver: the ladder answers on a lower rung and says so.
  RunLine(shell_, ".failpoints cqp.solve=1.0:7");
  std::string out = RunLine(shell_, "SELECT title FROM MOVIE");
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("degraded"), std::string::npos) << out;
  RunLine(shell_, ".failpoints off");
  failpoint::Reset();
}

}  // namespace cqp::shell
