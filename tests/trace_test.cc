// Unit tests of the span tracer: nesting / parent links, enable-disable
// gating, SpanTimer phase chaining, thread safety under ParallelFor, and
// well-formedness of the Chrome trace-event JSON export.

#include "util/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/parallel.h"

namespace elitenet {
namespace util {
namespace {

// Structural JSON check without a parser dependency: braces and brackets
// balance outside of strings, and strings/escapes terminate.
bool JsonBalanced(const std::string& s) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    TraceRecorder::Global().Clear();
    SetThreadCount(0);
  }
};

TEST_F(TraceTest, RecordsNestedSpansWithParentLinks) {
  {
    ELITENET_SPAN("outer");
    {
      ELITENET_SPAN("middle");
      { ELITENET_SPAN("inner"); }
    }
    { ELITENET_SPAN("sibling"); }
  }
  const std::vector<TraceEvent> events = TraceRecorder::Global().snapshot();
  ASSERT_EQ(events.size(), 4u);  // recorded in open order
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[1].parent, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].parent, 1);
  EXPECT_EQ(events[2].depth, 2);
  EXPECT_EQ(events[3].name, "sibling");
  EXPECT_EQ(events[3].parent, 0);
  EXPECT_EQ(events[3].depth, 1);
  // All closed; children start no earlier and end no later than parents.
  for (const TraceEvent& e : events) EXPECT_GT(e.duration_ns, 0u);
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  SetTracingEnabled(false);
  { ELITENET_SPAN("invisible"); }
  EXPECT_EQ(TraceRecorder::Global().size(), 0u);
  SetTracingEnabled(true);
  { ELITENET_SPAN("visible"); }
  EXPECT_EQ(TraceRecorder::Global().size(), 1u);
}

TEST_F(TraceTest, ClearDropsEverything) {
  { ELITENET_SPAN("a"); }
  ASSERT_EQ(TraceRecorder::Global().size(), 1u);
  TraceRecorder::Global().Clear();
  EXPECT_EQ(TraceRecorder::Global().size(), 0u);
  EXPECT_TRUE(TraceRecorder::Global().snapshot().empty());
}

TEST_F(TraceTest, SpanTimerChainsSiblingPhases) {
  {
    SpanTimer timer("phase1");
    EXPECT_GE(timer.Seconds(), 0.0);
    timer.Reset("phase2");
    timer.Reset();  // plain timing, no third span
    EXPECT_GE(timer.Seconds(), 0.0);
  }
  const std::vector<TraceEvent> events = TraceRecorder::Global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "phase1");
  EXPECT_EQ(events[1].name, "phase2");
  // Siblings, not nested: phase2 is also a root.
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_EQ(events[1].parent, -1);
  EXPECT_GT(events[0].duration_ns, 0u);
  EXPECT_GT(events[1].duration_ns, 0u);
}

TEST_F(TraceTest, ThreadSafeUnderParallelFor) {
  SetThreadCount(4);
  constexpr size_t kChunks = 64;
  ParallelFor(0, kChunks, 1, [](size_t, size_t) {
    ELITENET_SPAN("chunk");
    volatile int sink = 0;
    for (int i = 0; i < 100; ++i) sink = sink + i;
  });
  const std::vector<TraceEvent> events = TraceRecorder::Global().snapshot();
  ASSERT_EQ(events.size(), kChunks);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.name, "chunk");
    EXPECT_GT(e.duration_ns, 0u);  // every span was closed
  }
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  {
    ELITENET_SPAN("alpha");
    { ELITENET_SPAN("beta \"quoted\"\\slash"); }  // escaping stress
  }
  SetThreadCount(2);
  ParallelFor(0, 8, 1, [](size_t, size_t) { ELITENET_SPAN("par"); });

  const std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  // The quote and backslash in the name must arrive escaped.
  EXPECT_NE(json.find("beta \\\"quoted\\\"\\\\slash"), std::string::npos);
  EXPECT_EQ(json.find('\n', json.size() - 2), json.size() - 1);
}

}  // namespace
}  // namespace util
}  // namespace elitenet
