// Golden-fixture tests for tools/easeml_lint: every rule must be proven
// non-vacuous (its fixture trips it at the expected file:line), suppressions
// must silence exactly what they name, and the exit-code contract (0 clean,
// 1 findings, 2 usage error) must hold. The binary path and fixture root
// arrive as compile definitions from tests/CMakeLists.txt.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

LintRun RunLint(const std::string& args) {
  const std::string cmd = std::string(EASEML_LINT_BINARY) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch: " << cmd;
  if (pipe == nullptr) return run;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string Fixture(const std::string& rel) {
  return std::string(EASEML_LINT_FIXTURES) + "/" + rel;
}

// `file:line: [rule-id]` — the machine-readable prefix of one finding.
std::string Anchor(const std::string& rel, int line, const std::string& rule) {
  return Fixture(rel) + ":" + std::to_string(line) + ": [" + rule + "]";
}

TEST(LintCli, NoArgumentsIsUsageError) {
  LintRun run = RunLint("");
  EXPECT_EQ(run.exit_code, 2);
}

TEST(LintCli, MissingPathIsUsageError) {
  LintRun run = RunLint(Fixture("no_such_file.cc"));
  EXPECT_EQ(run.exit_code, 2);
}

TEST(LintCli, HelpListsEveryRule) {
  LintRun run = RunLint("--help");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* rule :
       {"unordered-container", "raw-rng", "chrono-seed", "raw-double-accum",
        "raw-sync", "unguarded-mutex", "raw-clock", "thread-cpu-clock",
        "raw-file-io", "bad-suppression"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos)
        << "--help does not document rule: " << rule;
  }
}

TEST(LintRules, UnorderedContainerInEnginePath) {
  const std::string rel = "src/core/unordered_violation.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 6, "unordered-container")),
            std::string::npos)
      << run.output;
}

TEST(LintRules, UnorderedContainerIgnoredOutsideEngineDirs) {
  // The same tokens outside src/{core,scheduler,shard,bandit} are fine —
  // clean.cc lives at the fixture root and uses std::map anyway, so pair it
  // with the raw_sync fixture to prove path scoping on a file that WOULD
  // trip other rules.
  LintRun run = RunLint(Fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("unordered-container"), std::string::npos);
}

TEST(LintRules, RawRngOutsideRngHome) {
  const std::string rel = "bad_rng.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 5, "raw-rng")), std::string::npos)
      << run.output;  // mt19937 / random_device
  EXPECT_NE(run.output.find(Anchor(rel, 9, "raw-rng")), std::string::npos)
      << run.output;  // libc rand()
}

TEST(LintRules, ChronoSeededRng) {
  const std::string rel = "chrono_seed.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 10, "chrono-seed")), std::string::npos)
      << run.output;
}

TEST(LintRules, RawDoubleAccumInMergeSeam) {
  const std::string rel = "src/shard/double_accum.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 9, "raw-double-accum")),
            std::string::npos)
      << run.output;
  // Integer accumulation in the same seam and double accumulation outside
  // any seam must both stay silent.
  EXPECT_EQ(run.output.find(":12:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":17:"), std::string::npos) << run.output;
}

TEST(LintRules, RawSyncPrimitives) {
  const std::string rel = "raw_sync.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 5, "raw-sync")), std::string::npos)
      << run.output;  // std::mutex global
  EXPECT_NE(run.output.find(Anchor(rel, 8, "raw-sync")), std::string::npos)
      << run.output;  // std::lock_guard
}

TEST(LintRules, UnguardedMutexMember) {
  const std::string rel = "unguarded.h";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  // Counter (line 7) has a Mutex member and no annotated field.
  EXPECT_NE(run.output.find(Anchor(rel, 7, "unguarded-mutex")),
            std::string::npos)
      << run.output;
  // GuardedCounter annotates a field: exactly one unguarded-mutex finding.
  size_t first = run.output.find("[unguarded-mutex]");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(run.output.find("[unguarded-mutex]", first + 1),
            std::string::npos)
      << run.output;
}

TEST(LintRules, RawClockOutsideCommon) {
  const std::string rel = "raw_clock.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 8, "raw-clock")), std::string::npos)
      << run.output;  // clock_gettime
  EXPECT_NE(run.output.find(Anchor(rel, 13, "raw-clock")), std::string::npos)
      << run.output;  // std::chrono::steady_clock
  // The reasoned suppression on line 19 must silence the read on line 20.
  EXPECT_EQ(run.output.find(":20:"), std::string::npos) << run.output;
}

TEST(LintRules, RawClockAllowedInCommon) {
  // common/ is the seam's home: the identical tokens there stay silent.
  LintRun run = RunLint(Fixture("common/clock_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("raw-clock"), std::string::npos) << run.output;
}

TEST(LintRules, ThreadCpuClockInSrcOutsideCommon) {
  const std::string rel = "src/obs/thread_cpu_clock.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 7, "thread-cpu-clock")),
            std::string::npos)
      << run.output;
}

TEST(LintRules, ThreadCpuClockReasonedSuppressionPasses) {
  // The allow() directive on line 11 silences the read on line 12: the
  // fixture's only finding is the unsuppressed read on line 7.
  LintRun run = RunLint(Fixture("src/obs/thread_cpu_clock.cc"));
  EXPECT_EQ(run.output.find(":12:"), std::string::npos) << run.output;
  const size_t first = run.output.find("[thread-cpu-clock]");
  ASSERT_NE(first, std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("[thread-cpu-clock]", first + 1),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("bad-suppression"), std::string::npos)
      << run.output;
}

TEST(LintRules, RawFileIoOutsideWal) {
  const std::string rel = "raw_file_io.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(Anchor(rel, 6, "raw-file-io")), std::string::npos)
      << run.output;  // fopen
  EXPECT_NE(run.output.find(Anchor(rel, 8, "raw-file-io")), std::string::npos)
      << run.output;  // ::write
  EXPECT_NE(run.output.find(Anchor(rel, 9, "raw-file-io")), std::string::npos)
      << run.output;  // fsync
  // The member-function declaration (line 13) and calls (lines 18-19)
  // share libc names but move no raw bytes: silent.
  EXPECT_EQ(run.output.find(":13:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":18:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":19:"), std::string::npos) << run.output;
}

TEST(LintRules, RawFileIoAllowedInWal) {
  // src/wal/ is the seam's home: the identical tokens there stay silent.
  LintRun run = RunLint(Fixture("src/wal/wal_io_ok.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("raw-file-io"), std::string::npos) << run.output;
}

TEST(LintSuppression, ValidSuppressionsSilenceFindings) {
  LintRun run = RunLint(Fixture("suppressed.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintSuppression, MissingReasonAndUnknownRuleAreFindings) {
  const std::string rel = "bad_suppression.cc";
  LintRun run = RunLint(Fixture(rel));
  EXPECT_EQ(run.exit_code, 1);
  // The reason-less directive is reported AND fails to suppress its line.
  EXPECT_NE(run.output.find(Anchor(rel, 3, "bad-suppression")),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find(Anchor(rel, 3, "raw-rng")), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find(Anchor(rel, 7, "bad-suppression")),
            std::string::npos)
      << run.output;
}

TEST(LintCorpus, CleanFileIsClean) {
  LintRun run = RunLint(Fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, "");
}

// The gate the tier-1 `lint` leg enforces: the real tree stays clean.
TEST(LintCorpus, RepositorySourceTreeIsClean) {
  LintRun run = RunLint(EASEML_SOURCE_DIR);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
