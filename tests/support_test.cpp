#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string_view>

#include "rapid/support/check.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "rapid/support/log.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"
#include "rapid/support/table.hpp"

namespace rapid {
namespace {

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    RAPID_CHECK(1 == 2, cat("context ", 42));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(RAPID_CHECK(true, ""));
}

TEST(Check, FailMacroAlwaysThrows) {
  EXPECT_THROW(RAPID_FAIL("boom"), Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Str, CatPrintsWhatAStreamPrints) {
  const std::string text = "t";
  std::ostringstream os;
  os << "S(" << 3 << ',' << -7L << ")" << text << std::string_view("v")
     << std::numeric_limits<std::int64_t>::min()
     << std::numeric_limits<std::uint64_t>::max() << std::size_t{42}
     << std::uint8_t{65} << std::int8_t{66} << true << 2.5 << 1e-7;
  EXPECT_EQ(cat("S(", 3, ',', -7L, ")", text, std::string_view("v"),
                std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::uint64_t>::max(), std::size_t{42},
                std::uint8_t{65}, std::int8_t{66}, true, 2.5, 1e-7),
            os.str());
}

TEST(Str, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-1.0, 0), "-1");
}

TEST(Str, Pct) {
  EXPECT_EQ(pct(0.123), "+12.3%");
  EXPECT_EQ(pct(-0.05), "-5.0%");
}

TEST(Str, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Str, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KB");
}

TEST(Flags, ParsesBothSyntaxes) {
  Flags flags;
  flags.define("n", "1", "count").define("name", "x", "label");
  const char* argv[] = {"prog", "--n=5", "--name", "hello"};
  flags.parse(4, argv);
  EXPECT_EQ(flags.get_int("n"), 5);
  EXPECT_EQ(flags.get("name"), "hello");
}

TEST(Flags, DefaultsApply) {
  Flags flags;
  flags.define("p", "2,4,8", "procs");
  const char* argv[] = {"prog"};
  flags.parse(1, argv);
  const auto list = flags.get_int_list("p");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 8);
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "--b=2"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(Flags, BadIntegerThrows) {
  Flags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "--a=xyz"};
  flags.parse(2, argv);
  EXPECT_THROW(flags.get_int("a"), Error);
}

TEST(Flags, BoolParsing) {
  Flags flags;
  flags.define("on", "false", "");
  const char* argv[] = {"prog", "--on=true"};
  flags.parse(2, argv);
  EXPECT_TRUE(flags.get_bool("on"));
}

TEST(Json, EscapesQuotesAndBackslashes) {
  JsonValue v(std::string("say \"hi\" c:\\temp"));
  EXPECT_EQ(v.dump(), "\"say \\\"hi\\\" c:\\\\temp\"\n");
}

TEST(Json, EscapesNamedControlCharacters) {
  JsonValue v(std::string("a\nb\tc\rd\be\ff"));
  EXPECT_EQ(v.dump(), "\"a\\nb\\tc\\rd\\be\\ff\"\n");
}

TEST(Json, EscapesUnnamedControlCharactersAsUnicode) {
  std::string s = "x";
  s += '\x01';
  s += '\x1f';
  s.push_back('\0');  // embedded NUL must not truncate the output
  JsonValue v(s);
  EXPECT_EQ(v.dump(), "\"x\\u0001\\u001f\\u0000\"\n");
}

TEST(Json, HighBytesPassThroughUnharmed) {
  // UTF-8 payload bytes (>= 0x80) must not be mangled into \uffXX by
  // signed-char promotion — they pass through verbatim.
  const std::string snowman = "\xe2\x98\x83";
  JsonValue v(snowman);
  EXPECT_EQ(v.dump(), "\"" + snowman + "\"\n");
}

TEST(Json, AdversarialKeyAndValueRoundTripStructurally) {
  // An object whose key and value both carry every escape class at once:
  // the dump must stay balanced and contain no raw control bytes.
  JsonValue root = JsonValue::object();
  std::string nasty = "\"\\\n\r\t\b\f";
  nasty += '\x02';
  nasty += "\xc3\xa9";  // é
  root[nasty] = nasty;
  const std::string out = root.dump();
  for (const char c : out) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte leaked into output";
  }
  EXPECT_NE(out.find("\\u0002"), std::string::npos);
  EXPECT_NE(out.find("\\\""), std::string::npos);
  EXPECT_NE(out.find("\xc3\xa9"), std::string::npos);
}

TEST(Json, InfAndNanBecomeNull) {
  JsonValue arr = JsonValue::array();
  arr.push_back(std::numeric_limits<double>::infinity());
  arr.push_back(std::numeric_limits<double>::quiet_NaN());
  const std::string out = arr.dump();
  EXPECT_EQ(out.find("inf"), std::string::npos);
  EXPECT_EQ(out.find("nan"), std::string::npos);
  EXPECT_NE(out.find("null"), std::string::npos);
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Json, EmptyObjectAndArrayDumpCompact) {
  EXPECT_EQ(JsonValue::object().dump(), "{}\n");
  EXPECT_EQ(JsonValue::array().dump(), "[]\n");
  // Empty containers nested in a parent stay compact too.
  JsonValue doc = JsonValue::object();
  doc["runs"] = JsonValue::array();
  doc["meta"] = JsonValue::object();
  const std::string out = doc.dump();
  EXPECT_NE(out.find("\"runs\": []"), std::string::npos);
  EXPECT_NE(out.find("\"meta\": {}"), std::string::npos);
}

TEST(Stopwatch, NowNsIsMonotonic) {
  std::int64_t prev = now_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t = now_ns();
    ASSERT_GE(t, prev);
    prev = t;
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::int64_t spin = now_ns();
  while (now_ns() - spin < 1'000'000) {
  }
  EXPECT_GE(sw.nanos(), 1'000'000);
  EXPECT_GT(sw.millis(), 0.9);
  EXPECT_GT(sw.seconds(), 0.0009);
}

TEST(Log, LevelFromEnvParsesNamesAndNumbers) {
  EXPECT_EQ(log_level_from_env("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_env("INFO"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_env("Warning"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_env("warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_env("error"), LogLevel::kError);
  EXPECT_EQ(log_level_from_env("0"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_env("3"), LogLevel::kError);
}

TEST(Log, LevelFromEnvFallsBackOnGarbage) {
  EXPECT_EQ(log_level_from_env(nullptr), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_env("", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(log_level_from_env("loud", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_env("7"), LogLevel::kWarn);
}

TEST(Log, ThreadProcTagIsPerThread) {
  set_log_thread_proc(3);
  EXPECT_EQ(log_thread_proc(), 3);
  set_log_thread_proc(-1);
  EXPECT_EQ(log_thread_proc(), -1);
}

}  // namespace
}  // namespace rapid
