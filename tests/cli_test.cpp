// dpmlsim's input validation, driven through the real binary: a bad flag
// fails before any simulation starts, with an error that names the flag
// rather than a source file and line.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace {

namespace fs = std::filesystem;

struct CliRun {
  int status = -1;     // exit status, -1 when killed by a signal
  std::string output;  // stdout and stderr, interleaved
};

CliRun run_dpmlsim(const fs::path& dir, const std::string& args) {
  const std::string cmd = "cd '" + dir.string() + "' && '" DPMLSIM_PATH "' " +
                          args + " 2>&1";
  CliRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int rc = pclose(pipe);
  r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return r;
}

// Each test runs dpmlsim in its own empty directory, so a stray output file
// (such as one named "true") is visible.
class DpmlsimCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("dpmlsim_cli_" + std::to_string(getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream(path) << text;
}

std::string read_file(const fs::path& path) {
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  return text.str();
}

constexpr const char* kLatency =
    "latency --cluster test --nodes 2 --ppn 2 --sizes 64:64 ";
constexpr const char* kTenants =
    "--cluster test --nodes 4 --ppn 2 --fabric --tenants 2 ";

TEST_F(DpmlsimCliTest, PerfJsonWithoutAFileIsRejectedBeforeTheRun) {
  const std::string cases[] = {
      std::string(kLatency) + "--perf-json",
      std::string(kLatency) + "--perf-json --time-only",
      std::string(kLatency) + "--perf-json=",
      std::string(kLatency) + "--perf-json=true",
      std::string(kTenants) + "--perf-json",
      std::string(kTenants) + "--perf-json --time-only",
  };
  for (const std::string& args : cases) {
    const CliRun r = run_dpmlsim(dir_, args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("--perf-json takes a FILE"), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
    // Nothing ran (no result table) and nothing was written.
    EXPECT_EQ(r.output.find("verified"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("shared run"), std::string::npos) << r.output;
    EXPECT_TRUE(fs::is_empty(dir_)) << args;
  }
}

TEST_F(DpmlsimCliTest, PerfJsonWithAFileIsWritten) {
  const CliRun a =
      run_dpmlsim(dir_, std::string(kLatency) + "--perf-json lat.json");
  EXPECT_EQ(a.status, 0) << a.output;
  EXPECT_TRUE(fs::exists(dir_ / "lat.json"));
  const CliRun b =
      run_dpmlsim(dir_, std::string(kTenants) + "--perf-json ten.json");
  EXPECT_EQ(b.status, 0) << b.output;
  EXPECT_TRUE(fs::exists(dir_ / "ten.json"));
}

TEST_F(DpmlsimCliTest, OtherFileFlagsWithoutAFileAreRejected) {
  const std::pair<std::string, std::string> cases[] = {
      {"tune --cluster test --nodes 2 --ppn 2 --sizes 64:64 --out", "--out"},
      {std::string(kLatency) + "--table", "--table"},
      {"replay --cluster test --nodes 2 --ppn 2 --trace", "--trace"},
      {"--mc-replay", "--mc-replay"},
  };
  for (const auto& [args, flag] : cases) {
    const CliRun r = run_dpmlsim(dir_, args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(flag + " takes a FILE"), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("selection table written"), std::string::npos)
        << r.output;
    EXPECT_TRUE(fs::is_empty(dir_)) << args;
  }
}

TEST_F(DpmlsimCliTest, UnknownAlgoNamesTheFlagAndTheRegisteredDesigns) {
  const std::string cases[] = {
      std::string(kLatency) + "--algo nosuch",
      std::string(kLatency) + "--collective bcast --algo nosuch",
      "hpcg --cluster test --nodes 2 --ppn 2 --algo nosuch",
  };
  for (const std::string& args : cases) {
    const CliRun r = run_dpmlsim(dir_, args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("--algo: unknown "), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_NE(r.output.find("algorithm 'nosuch'; registered:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find(" binomial"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find(".cpp:"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("verified"), std::string::npos) << r.output;
  }
  // A name registered under another kind says which kinds have it.
  const CliRun r = run_dpmlsim(
      dir_, std::string(kLatency) + "--collective bcast --algo dpml-auto");
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("is a registered algorithm of: allreduce"),
            std::string::npos)
      << r.output;
}

TEST_F(DpmlsimCliTest, BadSharedFlagsNameTheFlagBeforeTheRun) {
  const std::pair<std::string, std::string> cases[] = {
      {"latency --cluster Z",
       "--cluster: unknown cluster preset 'Z'; valid: A, B, C, D, test"},
      {std::string(kLatency) + "--nodes 0", "--nodes must be at least 1"},
      {std::string(kLatency) + "--nodes abc",
       "--nodes takes an integer, got 'abc'"},
      {std::string(kLatency) + "--ppn 0", "--ppn must be at least 1"},
      {std::string(kLatency) + "--reps 0", "--reps must be at least 1"},
      {std::string(kLatency) + "--iterations 0",
       "--iterations must be at least 1"},
      {std::string(kLatency) + "--warmup -1", "--warmup must be at least 0"},
      {std::string(kLatency) + "--scheduler foo",
       "--scheduler: unknown scheduler 'foo'"},
      {std::string(kLatency) + "--check foo", "--check: unknown check level"},
      {std::string(kLatency) + "--fabric foo",
       "--fabric: unknown fabric level"},
      {std::string(kLatency) + "--collective foo",
       "--collective: unknown collective kind 'foo'"},
      {std::string(kTenants) + "--scheduler foo",
       "--scheduler: unknown scheduler 'foo'"},
      {"--cluster test --nodes 4 --ppn 2 --tenants 0",
       "--tenants must be at least 1"},
  };
  for (const auto& [args, message] : cases) {
    const CliRun r = run_dpmlsim(dir_, args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("dpmlsim: " + message), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_EQ(r.output.find(".cpp:"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find(".hpp:"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
    // Nothing ran: no result table, no tenant report.
    EXPECT_EQ(r.output.find("verified"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("shared run"), std::string::npos) << r.output;
  }
}

TEST_F(DpmlsimCliTest, TableWithoutTheRequestedKindIsRejectedBeforeTheRun) {
  write_file(dir_ / "reduce.txt", "reduce * dpml 2\n");
  const CliRun r =
      run_dpmlsim(dir_, std::string(kLatency) + "--table reduce.txt");
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("dpmlsim: --table reduce.txt: selection table has "
                          "no entries for allreduce"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find(".cpp:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("verified"), std::string::npos) << r.output;
  // The same table serves the kind it names.
  const CliRun ok = run_dpmlsim(
      dir_, std::string(kLatency) + "--collective reduce --table reduce.txt");
  EXPECT_EQ(ok.status, 0) << ok.output;
  EXPECT_NE(ok.output.find("dpml(l=2)"), std::string::npos) << ok.output;
}

TEST_F(DpmlsimCliTest, MalformedTableLineIsQuotedBeforeTheRun) {
  write_file(dir_ / "bad.txt", "<=-1 rd\n* ring\n");
  const CliRun r = run_dpmlsim(dir_, std::string(kLatency) + "--table bad.txt");
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("dpmlsim: --table bad.txt: selection table: "),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'<=-1 rd'"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(".cpp:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("verified"), std::string::npos) << r.output;
}

TEST_F(DpmlsimCliTest, UnwritableAdaptTableFailsBeforeTheRun) {
  const CliRun r = run_dpmlsim(
      dir_, std::string(kTenants) + "--adapt-table nosuch/table.txt");
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("dpmlsim: --adapt-table: cannot write "
                          "nosuch/table.txt"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("shared run"), std::string::npos) << r.output;
  EXPECT_TRUE(fs::is_empty(dir_));
}

// The write probe neither leaves an empty table behind (a later run would
// fail to parse it) nor truncates an existing one. The runs below fail
// after the probe, because adaptation needs the link fabric.
TEST_F(DpmlsimCliTest, AdaptTableProbeKeepsTheFileAsItWas) {
  const std::string failing =
      "--cluster test --nodes 4 --ppn 2 --tenants 2 --fabric none "
      "--adapt-table table.txt";
  const CliRun fresh = run_dpmlsim(dir_, failing);
  EXPECT_EQ(fresh.status, 1) << fresh.output;
  EXPECT_NE(fresh.output.find("needs the flow fabric"), std::string::npos)
      << fresh.output;
  EXPECT_TRUE(fs::is_empty(dir_));

  const std::string table = "@c1 * cring 2\n";
  write_file(dir_ / "table.txt", table);
  const CliRun kept = run_dpmlsim(dir_, failing);
  EXPECT_EQ(kept.status, 1) << kept.output;
  EXPECT_EQ(read_file(dir_ / "table.txt"), table);

  // A run that succeeds writes the updated table.
  const CliRun ok =
      run_dpmlsim(dir_, std::string(kTenants) + "--adapt-table table.txt");
  EXPECT_EQ(ok.status, 0) << ok.output;
  EXPECT_NE(read_file(dir_ / "table.txt").find("@c1 *  cring 2 1"),
            std::string::npos);
}

}  // namespace
