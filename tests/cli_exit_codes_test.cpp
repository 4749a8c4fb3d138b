// The exit-code contract (support/exit_codes.hpp), enforced on the real
// binaries: 0 = ran and the checked thing is good, 1 = ran and found
// findings (bad trace, failed guard, rejected/failed runs), 2 = the tool
// itself could not run (bad flags, unreadable input). Scripts and CI lanes
// branch on this distinction, so it gets a test that spawns the actual
// executables rather than trusting each main()'s bookkeeping.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "rapid/support/exit_codes.hpp"
#include "rapid/support/str.hpp"

namespace rapid {
namespace {

/// Build-tree root (the directory holding tests/, src/, bench/), resolved
/// from this test binary's own path.
std::string build_root() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string dir(buf);
  const std::size_t slash = dir.rfind('/');
  if (slash == std::string::npos) return {};
  dir.resize(slash);
  return dir + "/..";
}

std::string binary(const std::string& rel) {
  const std::string path = build_root() + "/" + rel;
  return ::access(path.c_str(), X_OK) == 0 ? path : std::string();
}

/// Runs the command with output discarded; returns the exit code, or -1 if
/// the process did not exit normally.
int run(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

const std::vector<std::string> kAllClis = {
    "src/rapid/verify/rapid_check", "src/rapid/verify/rapid_verify",
    "src/rapid/obs/rapid_trace",    "src/rapid/obs/rapid_top",
    "src/rapid/svc/rapid_serve",    "bench/bench_executor",
    "bench/bench_service",
};

TEST(CliExitCodes, HelpExitsOkOnEveryBinary) {
  int tested = 0;
  for (const std::string& rel : kAllClis) {
    const std::string bin = binary(rel);
    if (bin.empty()) continue;  // not built in this tree
    EXPECT_EQ(run(bin + " --help"), kExitOk) << rel;
    ++tested;
  }
  ASSERT_GT(tested, 0) << "no CLI binaries found under " << build_root();
}

TEST(CliExitCodes, UnknownFlagIsInfraErrorOnEveryBinary) {
  int tested = 0;
  for (const std::string& rel : kAllClis) {
    const std::string bin = binary(rel);
    if (bin.empty()) continue;
    // A flag typo means the tool never ran: infrastructure error, not
    // findings — a CI lane must not mistake it for a clean check.
    EXPECT_EQ(run(bin + " --no_such_flag=1"), kExitInfraError) << rel;
    ++tested;
  }
  ASSERT_GT(tested, 0) << "no CLI binaries found under " << build_root();
}

TEST(CliExitCodes, ServeDistinguishesFindingsFromInfraError) {
  const std::string bin = binary("src/rapid/svc/rapid_serve");
  if (bin.empty()) GTEST_SKIP() << "rapid_serve not built";
  const std::string dir = ::testing::TempDir();

  // All runs complete -> ok.
  const std::string good = dir + "/serve_good.runs";
  std::ofstream(good) << "grid:rows=6,cols=6,procs=4\n";
  EXPECT_EQ(run(bin + " --runs=" + good), kExitOk);

  // A run the service rejects is a finding about the workload, not a tool
  // failure: the report is still produced, the exit code says "look".
  const std::string bad = dir + "/serve_bad.runs";
  std::ofstream(bad) << "grid:rows=6,cols=6,procs=4\n"
                     << "nosuch:app=1\n";
  EXPECT_EQ(run(bin + " --runs=" + bad), kExitFindings);

  // An unreadable runs file means the service never saw the work.
  EXPECT_EQ(run(bin + " --runs=" + dir + "/serve_missing.runs"),
            kExitInfraError);
}

TEST(CliExitCodes, ServeBadSpecValueRejectsOneRunNotTheBatch) {
  const std::string bin = binary("src/rapid/svc/rapid_serve");
  if (bin.empty()) GTEST_SKIP() << "rapid_serve not built";
  const std::string dir = ::testing::TempDir();
  const std::string runs = dir + "/serve_bad_value.runs";
  std::ofstream(runs) << "grid:rows=6,cols=6,procs=4\n"
                      << "cholesky:grid=abc\n";
  const std::string json = dir + "/serve_bad_value.json";
  // The malformed value is a rejected run (a finding), and the good line in
  // the same batch still completes.
  EXPECT_EQ(run(bin + " --runs=" + runs + " --json=" + json), kExitFindings);
  std::ifstream in(json);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"completed\": 1,"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"rejected\": 1,"), std::string::npos) << doc;
}

TEST(CliExitCodes, ServeMalformedKnobIsAnInfraErrorNamingTheKey) {
  const std::string bin = binary("src/rapid/svc/rapid_serve");
  if (bin.empty()) GTEST_SKIP() << "rapid_serve not built";
  const std::string dir = ::testing::TempDir();
  for (const std::string value : {"4096x", "abc", "99999999999999999999"}) {
    const std::string runs = dir + "/serve_bad_knob.runs";
    const std::string err = dir + "/serve_bad_knob.err";
    std::ofstream(runs) << "grid:rows=6,cols=6,procs=4 capacity=" << value
                        << "\n";
    // A knob that does not parse means the batch never ran.
    EXPECT_EQ(run("(" + bin + " --runs=" + runs + " 2>" + err + ")"),
              kExitInfraError)
        << value;
    std::ifstream in(err);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("capacity expects an integer, got \"" + value + "\""),
              std::string::npos)
        << text;
  }
}

TEST(CliExitCodes, ShmWorkerRejectsMalformedRank) {
  const std::string bin = binary("src/rapid/rt/rapid_shm_worker");
  if (bin.empty()) GTEST_SKIP() << "rapid_shm_worker not built";
  // A rank that does not parse is a usage error, caught before the worker
  // touches any segment (which would fail as a worker failure instead).
  for (const std::string value : {"abc", "1x"}) {
    EXPECT_EQ(run(bin + " --segment=/rapid-none --rank=" + value),
              kExitInfraError)
        << value;
  }
}

TEST(CliExitCodes, EveryOfflineCliAcceptsEverySpec) {
  const std::vector<std::string> specs = {
      "cholesky:grid=6,block=3,procs=2", "lu:grid=6,block=3,procs=2",
      "grid:rows=4,cols=4,procs=2",      "trisolve:grid=6,block=3,procs=2",
      "nbody:rows=3,cols=3,procs=2",
  };
  const std::string out = ::testing::TempDir() + "/cli_every_spec";
  const std::vector<std::pair<std::string, std::string>> clis = {
      {"src/rapid/verify/rapid_verify", ""},
      {"src/rapid/verify/rapid_check", " --executor=sim --litmus=false"},
      {"src/rapid/obs/rapid_trace", " --executor=sim --out=" + out},
  };
  int tested = 0;
  for (const auto& [rel, args] : clis) {
    const std::string bin = binary(rel);
    if (bin.empty()) continue;
    for (const std::string& spec : specs) {
      EXPECT_EQ(run(bin + " --workload=" + spec + args), kExitOk)
          << rel << " " << spec;
    }
    // A malformed spec means the tool never ran.
    EXPECT_EQ(run(bin + " --workload=cholesky:grid=12x" + args),
              kExitInfraError)
        << rel;
    EXPECT_EQ(run(bin + " --workload=nosuch:procs=2" + args),
              kExitInfraError)
        << rel;
    ++tested;
  }
  ASSERT_GT(tested, 0) << "no offline CLIs found under " << build_root();
}

TEST(CliExitCodes, ServeMetricsWriteFailureDegradesNotDies) {
  const std::string bin = binary("src/rapid/svc/rapid_serve");
  if (bin.empty()) GTEST_SKIP() << "rapid_serve not built";
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/serve_metrics_good.runs";
  std::ofstream(good) << "grid:rows=6,cols=6,procs=4\n";

  // An unwritable metrics path disables the sampler with a warning; the
  // service itself still runs every workload and exits by the normal
  // contract — telemetry loss must never take the service down.
  EXPECT_EQ(run(bin + " --runs=" + good +
                " --metrics-file=/nonexistent_rapid_dir/metrics.prom"),
            kExitOk);

  // And a writable one produces the snapshot pair alongside the same exit.
  const std::string prom = dir + "/serve_metrics.prom";
  EXPECT_EQ(run(bin + " --runs=" + good + " --metrics-file=" + prom),
            kExitOk);
  EXPECT_TRUE(std::ifstream(prom).good());
  EXPECT_TRUE(std::ifstream(prom + ".json").good());
}

TEST(CliExitCodes, TopDistinguishesFindingsFromInfraError) {
  const std::string top = binary("src/rapid/obs/rapid_top");
  const std::string serve = binary("src/rapid/svc/rapid_serve");
  if (top.empty()) GTEST_SKIP() << "rapid_top not built";
  const std::string dir = ::testing::TempDir();

  // Missing --file / unreadable snapshot: the tool never rendered.
  EXPECT_EQ(run(top), kExitInfraError);
  EXPECT_EQ(run(top + " --file=" + dir + "/top_missing.prom --frames=1"),
            kExitInfraError);

  // A file that is not exposition text is a finding about the snapshot.
  const std::string bad = dir + "/top_bad.prom";
  std::ofstream(bad) << "this is { not prometheus\n";
  EXPECT_EQ(run(top + " --file=" + bad + " --frames=1"), kExitFindings);

  // A real snapshot from rapid_serve renders clean.
  if (serve.empty()) return;
  const std::string runs = dir + "/top_runs.runs";
  std::ofstream(runs) << "grid:rows=6,cols=6,procs=4\n";
  const std::string prom = dir + "/top_live.prom";
  ASSERT_EQ(run(serve + " --runs=" + runs + " --metrics-file=" + prom),
            kExitOk);
  EXPECT_EQ(run(top + " --file=" + prom + " --frames=1"), kExitOk);
}

}  // namespace
}  // namespace rapid
