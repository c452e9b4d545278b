// common/json: writer round-trips, strict-parser acceptance/rejection with
// error offsets, a malformed-input corpus that must never crash, seeded
// random trees, golden shard bodies that must re-dump byte for byte, and the
// value semantics (copies, moves, duplicate keys) of the compact layout.

#include "common/json.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace xfrag::json {
namespace {

TEST(JsonWriter, ScalarForms) {
  EXPECT_EQ(Value().Dump(), "null");
  EXPECT_EQ(Value(true).Dump(), "true");
  EXPECT_EQ(Value(false).Dump(), "false");
  EXPECT_EQ(Value(42).Dump(), "42");
  EXPECT_EQ(Value(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(Value(uint64_t{18446744073709551615ULL}).Dump(),
            "18446744073709551615");
  EXPECT_EQ(Value(1.5).Dump(), "1.5");
  EXPECT_EQ(Value("hi").Dump(), "\"hi\"");
}

TEST(JsonWriter, IntegersNeverGrowFractions) {
  // Node ids and counters must round-trip as "42", not "42.0".
  Value v(uint64_t{42});
  EXPECT_TRUE(v.is_integral());
  EXPECT_EQ(v.Dump(), "42");
}

TEST(JsonWriter, StringEscapes) {
  EXPECT_EQ(Value("a\"b\\c\n\t\x01").Dump(),
            "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonWriter, ObjectsPreserveInsertionOrderAndOverwriteInPlace) {
  Value obj = Value::Object();
  obj.Set("b", 1).Set("a", 2).Set("b", 3);
  EXPECT_EQ(obj.Dump(), "{\"b\":3,\"a\":2}");
}

TEST(JsonWriter, PrettyPrint) {
  Value obj = Value::Object();
  obj.Set("xs", Value::Array().Append(1).Append(2));
  EXPECT_EQ(obj.Dump(2), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(Value::Array().Dump(), "[]");
  EXPECT_EQ(Value::Object().Dump(), "{}");
  EXPECT_EQ(Value::Object().Dump(2), "{}");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE((*Parse("null")).is_null());
  EXPECT_EQ((*Parse("true")).AsBool(), true);
  EXPECT_EQ((*Parse("-17")).AsInt(), -17);
  EXPECT_TRUE((*Parse("-17")).is_integral());
  EXPECT_DOUBLE_EQ((*Parse("2.5e2")).AsDouble(), 250.0);
  EXPECT_FALSE((*Parse("2.5e2")).is_integral());
  EXPECT_EQ((*Parse("\"x\"")).AsString(), "x");
}

TEST(JsonParse, NestedStructure) {
  auto v = Parse(R"({"a": [1, {"b": "c"}, null], "d": false})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("a")->size(), 3u);
  EXPECT_EQ((*v->Find("a"))[1].Find("b")->AsString(), "c");
  EXPECT_EQ(v->Find("d")->AsBool(), false);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ((*Parse("\"\\u0041\"")).AsString(), "A");
  EXPECT_EQ((*Parse("\"\\u00e9\"")).AsString(), "\xC3\xA9");       // é
  EXPECT_EQ((*Parse("\"\\u2026\"")).AsString(), "\xE2\x80\xA6");   // …
  // Surrogate pair: U+1F600.
  EXPECT_EQ((*Parse("\"\\uD83D\\uDE00\"")).AsString(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RoundTripThroughDump) {
  const std::string text =
      R"({"terms":["xquery","optimization"],"deadline_ms":250,)"
      R"("nested":[{"k":-1.25},[],{},null,true]})";
  auto v = Parse(text);
  ASSERT_TRUE(v.ok());
  auto again = Parse(v->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*v, *again);
  EXPECT_EQ(v->Dump(), again->Dump());
}

TEST(JsonParse, ReportsErrorOffsets) {
  size_t offset = 0;
  auto v = Parse(R"({"a": })", &offset);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(offset, 6u);

  auto trailing = Parse("1 x", &offset);
  EXPECT_FALSE(trailing.ok());
  EXPECT_EQ(offset, 2u);
}

TEST(JsonParse, RejectsStrictly) {
  // Each input is malformed under RFC 8259; Parse must fail, never crash.
  const std::vector<std::string> corpus = {
      "", " ", "{", "}", "[", "]", "{]", "[}", "{\"a\":1,}", "[1,]",
      "[1 2]", "{\"a\" 1}", "{1: 2}", "nul", "tru", "falsey", "+1", "01",
      "1.", ".5", "1e", "1e+", "--1", "\"", "\"\\\"", "\"\\x\"",
      "\"\\u12\"", "\"\\uD83D\"", "\"\\uDE00\"", "\"\\uD83D\\u0041\"",
      "\"unterminated", "'single'", "{\"a\": 1} {\"b\": 2}", "[1], [2]",
      "{\"a\"}", "// comment\n1", "[1, /*c*/ 2]", "NaN", "Infinity",
      std::string("\"ab\x01ule\""),  // raw control character in a string
  };
  for (const std::string& text : corpus) {
    size_t offset = 0;
    auto v = Parse(text, &offset);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    EXPECT_LE(offset, text.size());
  }
}

TEST(JsonParse, DepthLimitProtectsTheStack) {
  std::string deep(kMaxParseDepth + 8, '[');
  EXPECT_FALSE(Parse(deep).ok());
  std::string ok_depth;
  for (int i = 0; i < kMaxParseDepth - 1; ++i) ok_depth += '[';
  std::string closed = ok_depth + std::string(kMaxParseDepth - 1, ']');
  EXPECT_TRUE(Parse(closed).ok());
}

TEST(JsonParse, MutationFuzzNeverCrashes) {
  // Deterministic single-byte mutations of a valid document: every variant
  // must either parse or fail cleanly with an in-bounds offset.
  const std::string base =
      R"({"terms":["a","b"],"deadline_ms":1.5,"explain":true,"n":[1,2]})";
  const char replacements[] = {'"', '{', '}', '[', ']', ',', ':',
                               '\\', '0', 'x', ' ', '\n', '\x7f'};
  for (size_t i = 0; i < base.size(); ++i) {
    for (char c : replacements) {
      std::string mutated = base;
      mutated[i] = c;
      size_t offset = 0;
      auto v = Parse(mutated, &offset);
      if (!v.ok()) {
        EXPECT_LE(offset, mutated.size());
      }
    }
  }
}

TEST(JsonValue, RemoveDropsKeyAndPreservesOrder) {
  Value v = *Parse(R"({"a":1,"b":2,"c":3})");
  EXPECT_TRUE(v.Remove("b"));
  EXPECT_EQ(v.Dump(), R"({"a":1,"c":3})");
  EXPECT_FALSE(v.Remove("b"));  // already gone
  EXPECT_FALSE(v.Remove("zz"));
  EXPECT_TRUE(v.Remove("a"));
  EXPECT_TRUE(v.Remove("c"));
  EXPECT_EQ(v.Dump(), "{}");
  Value arr = *Parse("[1,2]");
  EXPECT_FALSE(arr.Remove("a"));  // non-objects never remove
  EXPECT_FALSE(Value(7).Remove("a"));
}

TEST(JsonValue, Equality) {
  EXPECT_EQ(Value(1), Value(int64_t{1}));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value("1"));
  EXPECT_EQ(*Parse("{\"a\":[1,2]}"), *Parse("{\"a\":[1,2]}"));
  EXPECT_NE(*Parse("{\"a\":[1,2]}"), *Parse("{\"a\":[2,1]}"));
}

/// A seeded random tree: every kind, integers at the int64/uint64 edges,
/// shortest-round-trip doubles, strings with escapes and multi-byte UTF-8.
Value RandomTree(Rng* rng, int depth) {
  const uint64_t kind = rng->Uniform(depth <= 0 ? 6 : 8);
  switch (kind) {
    case 0:
      return Value();
    case 1:
      return Value(rng->Chance(0.5));
    case 2: {
      static const int64_t edges[] = {0, -1, 42, INT64_MAX, INT64_MIN};
      return rng->Chance(0.3) ? Value(edges[rng->Uniform(5)])
                              : Value(static_cast<int64_t>(rng->Next()));
    }
    case 3:
      return rng->Chance(0.5) ? Value(uint64_t{18446744073709551615ULL})
                              : Value(rng->Next());
    case 4:
      return Value((rng->UniformDouble() - 0.5) *
                   static_cast<double>(uint64_t{1} << rng->Uniform(60)));
    case 5: {
      static const char* pieces[] = {"a", "node", "\"", "\\", "\n", "\t",
                                     "\x01", "\xC3\xA9", "\xF0\x9F\x98\x80",
                                     "/", " ", "<par>"};
      std::string s;
      for (uint64_t i = rng->Uniform(6); i > 0; --i) {
        s += pieces[rng->Uniform(12)];
      }
      return Value(std::move(s));
    }
    case 6: {
      Value array = Value::Array();
      for (uint64_t i = rng->Uniform(5); i > 0; --i) {
        array.Append(RandomTree(rng, depth - 1));
      }
      return array;
    }
    default: {
      Value object = Value::Object();
      for (uint64_t i = rng->Uniform(5); i > 0; --i) {
        object.Set("k" + std::to_string(rng->Uniform(8)),
                   RandomTree(rng, depth - 1));
      }
      return object;
    }
  }
}

TEST(JsonProperty, RandomTreesRoundTripThroughDump) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const Value tree = RandomTree(&rng, 5);
    for (int indent : {-1, 2}) {
      const std::string text = tree.Dump(indent);
      auto parsed = Parse(text);
      ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << text;
      EXPECT_EQ(*parsed, tree) << "seed " << seed << ": " << text;
    }
  }
}

TEST(JsonGolden, ShardBodiesRedumpByteForByte) {
  // Bodies as xfragd renders them: a ranked top-k body with
  // shortest-round-trip scores, a full-mode body, and a full-mode answer
  // with a 23-element "nodes" array and escaped XML text.
  const std::vector<std::string> golden = {
      R"({"query":"Q_{true}{xquery, optimization}","ranked":true,"top_k":3,)"
      R"("documents":1,"documents_evaluated":1,"documents_skipped":0,)"
      R"("answer_count":3,"answers":[{"document":"cli_smoke.xml",)"
      R"("document_index":0,"root":0,"root_tag":"article","size":6,)"
      R"("nodes":[0,1,3,4,5,6],"score":2.042258345535213},)"
      R"({"document":"cli_smoke.xml","document_index":0,"root":1,)"
      R"("root_tag":"section","size":3,"nodes":[1,3,4],)"
      R"("score":1.890895047923269},{"document":"cli_smoke.xml",)"
      R"("document_index":0,"root":3,"root_tag":"par","size":1,"nodes":[3],)"
      R"("score":1.7766646798878483}],"metrics":{"fragment_joins":11,)"
      R"("filter_evals":5,"filter_rejections":0,"fixed_point_iterations":0,)"
      R"("fragments_produced":11,"pairs_considered":0,)"
      R"("pairs_rejected_summary":0,"pairs_rejected_score":0,)"
      R"("subsume_checks_skipped":0,"classes_total":0,)"
      R"("class_pairs_considered":0,"answers_multiplied_out":0},)"
      R"("elapsed_ms":0.229661})",
      R"({"query":"Q_{size<=3}{query}","documents":1,"documents_evaluated":1,)"
      R"("documents_skipped":0,"answer_count":1,"answers":[{"document":)"
      R"("cli_smoke.xml","document_index":0,"root":2,"root_tag":"title",)"
      R"("size":1,"nodes":[2]}],"metrics":{"fragment_joins":1,)"
      R"("filter_evals":4,"filter_rejections":0,"fixed_point_iterations":1,)"
      R"("fragments_produced":1,"pairs_considered":1,)"
      R"("pairs_rejected_summary":0,"pairs_rejected_score":0,)"
      R"("subsume_checks_skipped":0,"classes_total":0,)"
      R"("class_pairs_considered":0,"answers_multiplied_out":0},)"
      R"("elapsed_ms":0.124451})",
      R"({"document":"deep.xml","document_index":0,"root":0,"root_tag":"doc",)"
      R"("size":23,"nodes":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,)"
      R"(19,20,21,22],"xml":"<doc>\n  <a1>\n    <a2>alpha</a2>\n  </a1>\n)"
      R"(  <c>alpha \"beta\" tab\tend</c>\n</doc>\n",)"
      R"("score":2.431879452191904})",
  };
  for (const std::string& text : golden) {
    auto parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Dump(), text);
  }
  const Value answer = *Parse(golden[2]);
  ASSERT_EQ(answer.Find("nodes")->size(), 23u);
  EXPECT_EQ((*answer.Find("nodes"))[22].AsInt(), 22);
  EXPECT_TRUE((*answer.Find("nodes"))[22].is_integral());
}

TEST(JsonValue, CopiesAreIndependent) {
  Value original = *Parse(R"({"a":[1,{"b":"c"}],"s":"text"})");
  const std::string before = original.Dump();
  Value copy = original;
  copy.Set("s", "changed");
  copy.Set("new", Value::Array().Append(7));
  EXPECT_EQ(original.Dump(), before);
  EXPECT_EQ(copy.Dump(), R"({"a":[1,{"b":"c"}],"s":"changed","new":[7]})");

  Value assigned;
  assigned = original;
  assigned.Remove("a");
  EXPECT_EQ(original.Dump(), before);
  EXPECT_EQ(assigned.Dump(), R"({"s":"text"})");

  // Copy-assigning a value from inside the target's own tree.
  Value nested = *Parse(R"([[1,2],3])");
  nested = nested.items()[0];
  EXPECT_EQ(nested.Dump(), "[1,2]");
}

TEST(JsonValue, MovedFromValueIsValid) {
  Value object = *Parse(R"({"a":[1,2],"s":"a string beyond the small size"})");
  Value taken = std::move(object);
  EXPECT_EQ(taken.Dump(), R"({"a":[1,2],"s":"a string beyond the small size"})");
  // The moved-from value can be inspected, reused and destroyed.
  (void)object.Dump();
  EXPECT_EQ(object.Find("a"), nullptr);
  object = Value(5);
  EXPECT_EQ(object.Dump(), "5");

  Value text("a string beyond the small-string size");
  Value moved;
  moved = std::move(text);
  EXPECT_EQ(moved.AsString(), "a string beyond the small-string size");
  text = Value::Array().Append(1);
  EXPECT_EQ(text.Dump(), "[1]");

  // Move-assigning a value out of the target's own tree.
  Value nested = *Parse(R"([[1,2],3])");
  nested = std::move(nested[0]);
  EXPECT_EQ(nested.Dump(), "[1,2]");
}

TEST(JsonParse, DuplicateKeyOverwritesInPlace) {
  auto v = Parse(R"({"a":1,"b":2,"a":{"x":[3]},"c":4,"b":"two"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Dump(), R"({"a":{"x":[3]},"b":"two","c":4})");
  EXPECT_EQ(v->size(), 3u);
}

TEST(JsonParse, DepthLimitBoundaryIsExact) {
  // The root sits at depth 0 and each container opens the next level;
  // a value deeper than kMaxParseDepth is rejected.
  auto nested_arrays = [](int levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_TRUE(Parse(nested_arrays(kMaxParseDepth + 1)).ok());
  EXPECT_FALSE(Parse(nested_arrays(kMaxParseDepth + 2)).ok());
  auto nested_objects = [](int levels) {
    std::string text;
    for (int i = 0; i < levels; ++i) text += R"({"k":)";
    text += "1";
    return text + std::string(levels, '}');
  };
  EXPECT_TRUE(Parse(nested_objects(kMaxParseDepth)).ok());
  size_t offset = 0;
  EXPECT_FALSE(Parse(nested_objects(kMaxParseDepth + 1), &offset).ok());
  EXPECT_EQ(offset, static_cast<size_t>(5 * (kMaxParseDepth + 1)));
}

TEST(JsonHeapBytes, ScalarsHoldNoHeap) {
  EXPECT_EQ(Value().HeapBytes(), 0u);
  EXPECT_EQ(Value(true).HeapBytes(), 0u);
  EXPECT_EQ(Value(int64_t{-7}).HeapBytes(), 0u);
  EXPECT_EQ(Value(uint64_t{42}).HeapBytes(), 0u);
  EXPECT_EQ(Value(2.5).HeapBytes(), 0u);
  EXPECT_EQ(Value("v").HeapBytes(), 0u);  // Fits the inline string buffer.
  EXPECT_EQ(Value::Array().HeapBytes(), 0u);
  EXPECT_EQ(Value::Object().HeapBytes(), 0u);
  const std::string long_text(100, 'x');
  EXPECT_GT(Value(long_text).HeapBytes(), long_text.size());
}

TEST(JsonHeapBytes, EqualTreesGiveEqualValues) {
  const char* text =
      R"({"answers":[{"root":3,"nodes":[3,4,5],"xml":"<a>some text</a>"}],)"
      R"("query":"{xquery, optimization} WHERE size<=3","elapsed_ms":0.25})";
  auto a = Parse(text);
  auto b = Parse(text);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->HeapBytes(), 0u);
  EXPECT_EQ(a->HeapBytes(), b->HeapBytes());
  auto build = [] {
    Value v = Value::Object();
    v.Set("document", std::string(40, 'd'));
    Value nodes = Value::Array();
    for (uint64_t n = 0; n < 10; ++n) nodes.Append(n);
    v.Set("nodes", std::move(nodes));
    return v;
  };
  EXPECT_EQ(build().HeapBytes(), build().HeapBytes());
}

TEST(JsonHeapBytes, AddingAnElementRaisesIt) {
  Value array = Value::Array();
  size_t before = array.HeapBytes();
  array.Append(uint64_t{1});
  EXPECT_GT(array.HeapBytes(), before);
  before = array.HeapBytes();
  array.Append(std::string(64, 's'));
  EXPECT_GT(array.HeapBytes(), before);

  Value object = Value::Object();
  before = object.HeapBytes();
  object.Set("k", 1);
  EXPECT_GT(object.HeapBytes(), before);
  before = object.HeapBytes();
  Value inner = Value::Array();
  inner.Append(2.0);
  object.Set("nested", std::move(inner));
  EXPECT_GT(object.HeapBytes(), before);
}

}  // namespace
}  // namespace xfrag::json
