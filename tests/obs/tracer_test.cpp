#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hpp"

namespace pllbist::obs {
namespace {

TEST(Tracer, DisabledByDefaultRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.begin("x"), 0u);
  t.end(0);
  t.instant("y");
  const Tracer::Scope s = t.beginScoped("z");
  EXPECT_EQ(s.id, 0u);
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, RecordsCompletedSpans) {
  Tracer t;
  t.setEnabled(true);
  const uint64_t id = t.begin("outer");
  t.instant("marker");
  t.end(id);
  const auto records = t.records();
  ASSERT_EQ(records.size(), 2u);
  // Completion order: the instant landed before the span closed.
  EXPECT_EQ(records[0].name, "marker");
  EXPECT_TRUE(records[0].instant);
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_FALSE(records[1].instant);
  EXPECT_NE(records[1].id, 0u);
}

TEST(Tracer, ScopedSpansNestViaThreadLocalStack) {
  Tracer t;
  t.setEnabled(true);
  const Tracer::Scope outer = t.beginScoped("outer");
  const Tracer::Scope inner = t.beginScoped("inner");
  // Manual spans parent under the innermost open scope without pushing.
  const uint64_t manual = t.begin("stage");
  t.end(manual);
  t.endScoped(inner.id);
  t.endScoped(outer.id);

  const auto records = t.records();
  ASSERT_EQ(records.size(), 3u);
  const SpanRecord& stage = records[0];
  const SpanRecord& in = records[1];
  const SpanRecord& out = records[2];
  EXPECT_EQ(stage.name, "stage");
  EXPECT_EQ(in.name, "inner");
  EXPECT_EQ(out.name, "outer");
  EXPECT_EQ(out.parent_id, 0u);
  EXPECT_EQ(in.parent_id, out.id);
  EXPECT_EQ(stage.parent_id, in.id);
}

TEST(Tracer, RingBufferKeepsMostRecent) {
  Tracer t(/*capacity=*/4);
  t.setEnabled(true);
  for (int i = 0; i < 10; ++i) t.instant("i" + std::to_string(i));
  const auto records = t.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().name, "i6");  // oldest surviving
  EXPECT_EQ(records.back().name, "i9");
}

TEST(Tracer, ClearDropsRecords) {
  Tracer t;
  t.setEnabled(true);
  t.instant("a");
  t.clear();
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, ChromeTraceIsValidJson) {
  Tracer t;
  t.setEnabled(true);
  const uint64_t id = t.begin("span.name");
  t.instant("marker");
  t.end(id);
  std::ostringstream os;
  t.writeChromeTrace(os);

  JsonValue doc;
  ASSERT_TRUE(parseJson(os.str(), doc).ok()) << os.str();
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_EQ(events->array.size(), 2u);
  bool saw_complete = false, saw_instant = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      saw_complete = true;
      EXPECT_EQ(e.find("name")->string, "span.name");
      EXPECT_NE(e.find("dur"), nullptr);
    }
    if (ph->string == "i") saw_instant = true;
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);
}

TEST(Tracer, EndOfUnknownIdIsIgnored) {
  Tracer t;
  t.setEnabled(true);
  t.end(12345);  // never started; must not crash or record
  EXPECT_TRUE(t.records().empty());
}

}  // namespace
}  // namespace pllbist::obs
