// A deadline must interrupt a query inside its join loops, not only between
// fixed-point iterations. On a star document (a root with 18 identical
// <p>a</p> children) FIXPOINT({a}) has 2^18 − 1 answers and every iteration
// joins the whole working set with the base, so a token polled once per
// iteration overshoots by the length of the iteration it trips in. The kernels
// poll every 1024 pairs; the request must answer DeadlineExceeded promptly.

#include <gtest/gtest.h>

#include <string>

#include "collection/collection.h"
#include "common/json.h"
#include "common/timer.h"
#include "server/service.h"

namespace xfrag::server {
namespace {

TEST(DeadlineOvershootTest, StarFixpointStopsWithinTheDeadline) {
  std::string xml = "<r>";
  for (int i = 0; i < 18; ++i) xml += "<p>a</p>";
  xml += "</r>";
  collection::Collection collection;
  ASSERT_TRUE(collection.AddXml("star.xml", xml).ok());
  QueryService service(collection);

  Timer timer;
  QueryOutcome outcome =
      service.HandleQuery(R"({"q": "FIXPOINT({a}) LIMIT 1 DEADLINE 300"})");
  const double elapsed_ms = timer.ElapsedMillis();

  EXPECT_EQ(outcome.http_status, 504) << outcome.body.Dump();
  const json::Value* code = outcome.body.Find("code");
  ASSERT_NE(code, nullptr) << outcome.body.Dump();
  EXPECT_EQ(code->AsString(), "DeadlineExceeded");
  EXPECT_LT(elapsed_ms, 300.0 + 100.0) << "overshoot past the 300 ms deadline";
}

}  // namespace
}  // namespace xfrag::server
