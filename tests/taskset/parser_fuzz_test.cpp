/// \file parser_fuzz_test.cpp
/// Satellite of the robustness PR: the text loaders must survive HOSTILE
/// input — random mutations of valid files, binary garbage, oversized
/// counts, truncation — with exactly two legal outcomes: a successful parse
/// or a typed hedra::Error naming the problem.  Crashes, hangs, and UB are
/// the bugs this suite hunts; 10k mutated cases per parser keep the odds
/// honest.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/dag_io.h"
#include "model/platform.h"
#include "taskset/taskset.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hedra::taskset {
namespace {

std::string valid_taskset_text() {
  return
      "platform 4:gpu*2@3.0,dsp@1.5\n"
      "task tau1 period 1200 deadline 1100\n"
      "node v1 5\n"
      "node v2 9 offload\n"
      "node v3 4 offload:2\n"
      "node v4 7 sync\n"
      "edge v1 v2\n"
      "edge v2 v4\n"
      "edge v1 v3\n"
      "endtask\n"
      "task tau2 period 500 deadline 450\n"
      "node a 20\n"
      "node b 8 offload\n"
      "edge a b\n"
      "endtask\n";
}

/// One random mutation: byte flips, truncation, line-level edits, binary
/// splices — the failure shapes a corrupted file or hostile peer produces.
std::string mutate(const std::string& base, Rng& rng) {
  std::string text = base;
  switch (rng.uniform_int(0, 6)) {
    case 0: {  // flip a byte (any value, including non-UTF8 high bytes)
      if (text.empty()) break;
      text[rng.index(text.size())] =
          static_cast<char>(rng.uniform_int(0, 255));
      break;
    }
    case 1: {  // truncate mid-file
      text.resize(rng.index(text.size() + 1));
      break;
    }
    case 2: {  // delete a random line
      auto lines = split(text, '\n');
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                      rng.index(lines.size())));
      text.clear();
      for (const auto& line : lines) text += line + "\n";
      break;
    }
    case 3: {  // duplicate a random line
      auto lines = split(text, '\n');
      const std::size_t i = rng.index(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      text.clear();
      for (const auto& line : lines) text += line + "\n";
      break;
    }
    case 4: {  // swap two lines
      auto lines = split(text, '\n');
      std::swap(lines[rng.index(lines.size())],
                lines[rng.index(lines.size())]);
      text.clear();
      for (const auto& line : lines) text += line + "\n";
      break;
    }
    case 5: {  // splice binary garbage at a random offset
      std::string garbage;
      const std::size_t len = rng.index(16) + 1;
      for (std::size_t i = 0; i < len; ++i) {
        garbage += static_cast<char>(rng.uniform_int(0, 255));
      }
      text.insert(rng.index(text.size() + 1), garbage);
      break;
    }
    default: {  // scramble a number
      const std::size_t at = text.find_first_of("0123456789");
      if (at != std::string::npos) {
        text.replace(at, 1, std::to_string(rng.next_u64()));
      }
      break;
    }
  }
  return text;
}

TEST(ParserFuzzTest, TasksetFromTextSurvives10kMutations) {
  const std::string base = valid_taskset_text();
  Rng rng(20260807);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 10'000; ++i) {
    // 1-3 stacked mutations per case.
    std::string text = base;
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int e = 0; e < edits; ++e) text = mutate(text, rng);
    try {
      const TaskSet set = TaskSet::from_text(text);
      // A successful parse must yield a coherent, re-serialisable set.
      (void)set.to_text();
      ++parsed;
    } catch (const Error&) {
      ++rejected;  // the only legal failure mode
    }
    // Anything else — segfault, std::bad_alloc from a hostile count,
    // std::out_of_range, a hang — fails the test (or kills the binary).
  }
  EXPECT_EQ(parsed + rejected, 10'000);
  EXPECT_GT(rejected, 0);  // the mutator does reach the error paths
}

TEST(ParserFuzzTest, PlatformParseSurvives10kMutations) {
  const std::string base = "4:gpu*2@3.0,dsp@1.5,npu";
  Rng rng(426);
  for (int i = 0; i < 10'000; ++i) {
    std::string text = base;
    const int edits = static_cast<int>(rng.uniform_int(1, 2));
    for (int e = 0; e < edits; ++e) text = mutate(text, rng);
    try {
      const model::Platform platform = model::Platform::parse(text);
      // Round-trip: what parsed must re-parse from its own spec.
      (void)model::Platform::parse(platform.spec());
    } catch (const Error&) {
    }
  }
}

TEST(ParserFuzzTest, PureBinaryGarbageIsATypedError) {
  Rng rng(99);
  for (int i = 0; i < 1'000; ++i) {
    std::string garbage;
    const std::size_t len = rng.index(256);
    for (std::size_t b = 0; b < len; ++b) {
      garbage += static_cast<char>(rng.uniform_int(0, 255));
    }
    EXPECT_THROW((void)TaskSet::from_text("\xff\x80" + garbage), Error);
    try {
      (void)model::Platform::parse(garbage);
    } catch (const Error&) {
    }
  }
}

TEST(ParserFuzzTest, TaskCountCapNamesTheLine) {
  std::ostringstream text;
  text << "platform 4:acc\n";
  for (std::size_t i = 0; i <= TaskSet::kMaxParsedTasks; ++i) {
    text << "task t" << i << " period 100 deadline 100\nnode v 1\nendtask\n";
  }
  try {
    (void)TaskSet::from_text(text.str());
    FAIL() << "expected the task-count cap to fire";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line"), std::string::npos) << what;
    EXPECT_NE(what.find("cap"), std::string::npos) << what;
  }
}

TEST(ParserFuzzTest, NodeCountCapNamesTheLine) {
  std::ostringstream text;
  text << "platform 4:acc\ntask big period 100 deadline 100\n";
  for (std::size_t i = 0; i <= graph::kMaxParsedNodes; ++i) {
    text << "node n" << i << " 1\n";
  }
  text << "endtask\n";
  try {
    (void)TaskSet::from_text(text.str());
    FAIL() << "expected the node-count cap to fire";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cap"), std::string::npos) << what;
  }
}

TEST(ParserFuzzTest, DeviceCountCapRefused) {
  std::string spec = "4:";
  for (std::size_t i = 0; i <= model::Platform::kMaxParsedDevices; ++i) {
    if (i > 0) spec += ",";
    spec.append("d").append(std::to_string(i));
  }
  EXPECT_THROW((void)model::Platform::parse(spec), Error);
}

TEST(ParserFuzzTest, DirectedHostileCases) {
  // Truncated endtask names the task and its line.
  try {
    (void)TaskSet::from_text(
        "platform 4:acc\ntask tau1 period 100 deadline 100\nnode v 1\n");
    FAIL() << "expected a truncation error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("endtask"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }

  // Duplicate task names are a parse error naming the second header line.
  try {
    (void)TaskSet::from_text(
        "platform 4:acc\n"
        "task tau period 100 deadline 100\nnode v 1\nendtask\n"
        "task tau period 100 deadline 100\nnode v 1\nendtask\n");
    FAIL() << "expected a duplicate-name error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
  }

  // An absurd declared count inside a number must not allocate: 10^18 is a
  // parseable int64 but period/deadline validation bounds it.
  EXPECT_THROW((void)TaskSet::from_text(
                   "platform 4:acc\n"
                   "task tau period 99999999999999999999 deadline 1\n"
                   "node v 1\nendtask\n"),
               Error);

  // Oversized core counts are rejected by Platform::validate.
  EXPECT_THROW((void)model::Platform::parse("99999999999999999999"), Error);
  EXPECT_THROW((void)model::Platform::parse("-3"), Error);
}

}  // namespace
}  // namespace hedra::taskset
