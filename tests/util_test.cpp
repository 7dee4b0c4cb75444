#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/packet.hpp"
#include "tcp/congestion.hpp"
#include "util/flags.hpp"
#include "util/inline_function.hpp"
#include "util/interval_set.hpp"
#include "util/log.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/small_vector.hpp"
#include "util/units.hpp"

namespace slp {
namespace {

using namespace slp::literals;

// ---------------------------------------------------------------- Duration

TEST(Duration, FactoryConversionsAreExact) {
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::millis(3).ns(), 3'000'000);
  EXPECT_EQ(Duration::micros(7).ns(), 7'000);
  EXPECT_EQ(Duration::minutes(2).ns(), 120'000'000'000);
  EXPECT_EQ(Duration::hours(1), Duration::minutes(60));
  EXPECT_EQ(Duration::days(1), Duration::hours(24));
}

TEST(Duration, FromSecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(Duration::from_seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(Duration::from_millis(0.0001).ns(), 100);
  EXPECT_EQ(Duration::from_micros(2.5).ns(), 2'500);
}

TEST(Duration, FromSecondsMatchesLlroundBitForBit) {
  // The inline rounding must agree with std::llround on every input: exact
  // halves (away from zero), their nextafter neighbours on both sides,
  // negatives, the range where doubles are whole numbers (2^52..2^63) and
  // the NaN/inf fallback.
  const auto llround_ns = [](double s) { return static_cast<std::int64_t>(std::llround(s * 1e9)); };
  std::vector<double> ns_values;
  for (const double half : {0.5, 1.5, 2.5, 1e6 + 0.5, 123456789.5, 4503599627370495.5}) {
    for (const double v : {half, std::nextafter(half, 0.0), std::nextafter(half, 1e300)}) {
      ns_values.push_back(v);
      ns_values.push_back(-v);
    }
  }
  for (int e = 52; e <= 63; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, std::nextafter(p, 0.0), std::nextafter(p, 1e300)}) {
      ns_values.push_back(v);
      ns_values.push_back(-v);
    }
  }
  ns_values.push_back(0.0);
  ns_values.push_back(-0.0);
  ns_values.push_back(0.49999999999999994);
  ns_values.push_back(-0.49999999999999994);
  // Callers pass seconds, so probe the nine doubles around ns / 1e9: their
  // products with 1e9 land on and next to each target, exact halves included.
  int exact_halves = 0;
  for (const double ns : ns_values) {
    double s = ns / 1e9;
    for (int i = 0; i < 4; ++i) s = std::nextafter(s, -1e300);
    for (int i = 0; i < 9; ++i, s = std::nextafter(s, 1e300)) {
      const double x = s * 1e9;
      if (std::abs(x) < 9e15 && x - std::trunc(x) == std::copysign(0.5, x)) ++exact_halves;
      EXPECT_EQ(Duration::from_seconds(s).ns(), llround_ns(s)) << "s=" << s;
    }
  }
  EXPECT_GE(exact_halves, 12);
  for (const double s : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 9.3e9, -9.3e9}) {
    EXPECT_EQ(Duration::from_seconds(s).ns(), llround_ns(s)) << "s=" << s;
  }
  // A sweep of draws like the simulator's: uniform jitter and serialization
  // times at many scales.
  Rng rng{11};
  for (int i = 0; i < 200000; ++i) {
    const double s = rng.uniform(-1.0, 1.0) * std::ldexp(1.0, static_cast<int>(rng.index(40)) - 30);
    ASSERT_EQ(Duration::from_seconds(s).ns(), llround_ns(s)) << "s=" << s;
  }
}

TEST(Duration, ArithmeticBehavesLikeIntegers) {
  const Duration a = 5_ms;
  const Duration b = 3_ms;
  EXPECT_EQ((a + b).ns(), 8'000'000);
  EXPECT_EQ((a - b).ns(), 2'000'000);
  EXPECT_EQ((a * 2.0).ns(), 10'000'000);
  EXPECT_DOUBLE_EQ(a / b, 5.0 / 3.0);
  EXPECT_EQ(-a + a, Duration::zero());
}

TEST(Duration, ComparisonsAreTotalOrder) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_LE(2_ms, 2_ms);
  EXPECT_GT(1_s, 999_ms);
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_TRUE((Duration::zero() - 1_ns).is_negative());
  EXPECT_TRUE(Duration::infinite().is_infinite());
}

TEST(Duration, ToStringPicksReadableUnit) {
  EXPECT_EQ(to_string(2_s), "2s");
  EXPECT_EQ(to_string(5_ms), "5ms");
  EXPECT_EQ(to_string(42_us), "42us");
  EXPECT_EQ(to_string(7_ns), "7ns");
}

// ---------------------------------------------------------------- TimePoint

TEST(TimePoint, EpochPlusDurationRoundTrips) {
  const TimePoint t = TimePoint::epoch() + 5_s;
  EXPECT_EQ(t.since_epoch(), 5_s);
  EXPECT_EQ((t - 2_s).since_epoch(), 3_s);
  EXPECT_EQ(t - TimePoint::epoch(), 5_s);
}

TEST(TimePoint, OrderingFollowsClock) {
  const TimePoint a = TimePoint::epoch() + 1_s;
  const TimePoint b = TimePoint::epoch() + 2_s;
  EXPECT_LT(a, b);
  EXPECT_EQ(a + 1_s, b);
}

// ---------------------------------------------------------------- DataRate

TEST(DataRate, TransmissionTimeMatchesHandMath) {
  // 1500 bytes at 12 Mbit/s = 1 ms.
  EXPECT_EQ(DataRate::mbps(12).transmission_time(1500), 1_ms);
  // 125 bytes at 1 Mbit/s = 1 ms.
  EXPECT_EQ(DataRate::mbps(1).transmission_time(125), 1_ms);
}

TEST(DataRate, BytesInInvertsTransmissionTime) {
  const DataRate r = DataRate::mbps(100);
  EXPECT_NEAR(r.bytes_in(1_s), 12'500'000.0, 1.0);
}

TEST(DataRate, RateOfComputesObservedThroughput) {
  // 12.5 MB in one second = 100 Mbit/s.
  EXPECT_NEAR(rate_of(12'500'000, 1_s).to_mbps(), 100.0, 1e-9);
  EXPECT_TRUE(rate_of(1000, Duration::zero()).is_zero());
}

TEST(DataRate, LiteralsAndComparisons) {
  EXPECT_EQ(100_mbps, DataRate::mbps(100));
  EXPECT_LT(10_mbps, 1_gbps);
  EXPECT_EQ((2 * 50_mbps).to_mbps(), 100.0);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsStableAndIndependent) {
  const Rng parent{7};
  Rng f1 = parent.fork("quic");
  Rng f2 = parent.fork("quic");
  Rng f3 = parent.fork("tcp");
  EXPECT_EQ(f1.next(), f2.next());
  EXPECT_NE(f1.next(), f3.next());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng{3};
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{4};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng{5};
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, NormalMomentsConverge) {
  Rng rng{6};
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng{8};
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng{9};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, WorksWithStdDistributions) {
  Rng rng{10};
  std::uniform_int_distribution<int> dist(0, 9);
  for (int i = 0; i < 100; ++i) {
    const int v = dist(rng);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, DiscardEqualsRepeatedNext) {
  // Zero, single and several set bits, powers of two and their neighbours,
  // and the 2^24-draw reach of a day-146 load-process seek; seeded and forked.
  const std::uint64_t ns[] = {0, 1, 2, 1023, 1024, 1025, 1'000'007, 1ull << 24};
  const Rng streams[] = {Rng{1}, Rng{0xDEADBEEFull}, Rng{42}.fork("leo/load-down")};
  for (const Rng& start : streams) {
    for (const std::uint64_t n : ns) {
      Rng stepped = start;
      for (std::uint64_t i = 0; i < n; ++i) (void)stepped.next();
      Rng jumped = start;
      jumped.discard(n);
      for (int i = 0; i < 4; ++i) ASSERT_EQ(jumped.next(), stepped.next()) << "n=" << n;
    }
  }
}

TEST(Rng, NormalConsumesExactlyTwoDraws) {
  // LoadProcess's seek discards 2 draws per AR(1) step; pin that invariant.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng a{seed};
    Rng b{seed};
    for (int i = 0; i < 50; ++i) (void)a.normal(0.0, 0.05);
    b.discard(100);
    EXPECT_EQ(a.next(), b.next()) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------- Flags

TEST(Flags, ParsesKeyValueAndBareFlags) {
  const char* argv[] = {"prog", "--seed=42", "--verbose", "pos1", "--rate=1.5"};
  const Flags f = Flags::parse(5, argv);
  EXPECT_EQ(f.get_int("seed", 0), 42);
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 1.5);
  ASSERT_NE(f.positional(0), nullptr);
  EXPECT_EQ(*f.positional(0), "pos1");
  EXPECT_EQ(f.positional(1), nullptr);
  EXPECT_TRUE(f.problems().empty());
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const Flags f = Flags::parse(1, argv);
  EXPECT_EQ(f.get("name", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_FALSE(f.has("n"));
}

TEST(Flags, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  const Flags f = Flags::parse(3, argv);
  (void)f.get_int("used", 0);
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ------------------------------------------------------------ parse_duration

TEST(ParseDuration, AcceptsEveryUnitSuffix) {
  Duration d;
  ASSERT_TRUE(parse_duration("90s", d));
  EXPECT_EQ(d, Duration::seconds(90));
  ASSERT_TRUE(parse_duration("15m", d));
  EXPECT_EQ(d, Duration::minutes(15));
  ASSERT_TRUE(parse_duration("15min", d));
  EXPECT_EQ(d, Duration::minutes(15));
  ASSERT_TRUE(parse_duration("2h", d));
  EXPECT_EQ(d, Duration::hours(2));
  ASSERT_TRUE(parse_duration("3d", d));
  EXPECT_EQ(d, Duration::days(3));
  ASSERT_TRUE(parse_duration("250ms", d));
  EXPECT_EQ(d, Duration::millis(250));
  ASSERT_TRUE(parse_duration("7us", d));
  EXPECT_EQ(d, Duration::micros(7));
  ASSERT_TRUE(parse_duration("42ns", d));
  EXPECT_EQ(d, Duration::nanos(42));
}

TEST(ParseDuration, BareNumberMeansSecondsAndFractionsWork) {
  Duration d;
  ASSERT_TRUE(parse_duration("42", d));
  EXPECT_EQ(d, Duration::seconds(42));
  ASSERT_TRUE(parse_duration("1.5s", d));
  EXPECT_EQ(d, Duration::millis(1500));
  ASSERT_TRUE(parse_duration("0.25h", d));
  EXPECT_EQ(d, Duration::minutes(15));
  ASSERT_TRUE(parse_duration("  2m ", d));  // surrounding whitespace
  EXPECT_EQ(d, Duration::minutes(2));
}

TEST(ParseDuration, RejectsJunkWithoutTouchingOut) {
  Duration d = Duration::seconds(99);
  EXPECT_FALSE(parse_duration("", d));
  EXPECT_FALSE(parse_duration("fast", d));
  EXPECT_FALSE(parse_duration("10 parsecs", d));
  EXPECT_FALSE(parse_duration("5x", d));
  EXPECT_FALSE(parse_duration("1.5s tail", d));
  EXPECT_EQ(d, Duration::seconds(99));
}

TEST(Flags, GetDurationParsesSuffixesAndFallsBack) {
  const char* argv[] = {"prog", "--window=15m", "--ramp=90s", "--bad=soon", "--bare=3"};
  const Flags f = Flags::parse(5, argv);
  EXPECT_EQ(f.get_duration("window", Duration::zero()), Duration::minutes(15));
  EXPECT_EQ(f.get_duration("ramp", Duration::zero()), Duration::seconds(90));
  EXPECT_EQ(f.get_duration("bare", Duration::zero()), Duration::seconds(3));
  // An invalid value returns the default and is reported, never misparsed.
  EXPECT_EQ(f.get_duration("bad", Duration::seconds(5)), Duration::seconds(5));
  EXPECT_EQ(f.get_duration("absent", Duration::hours(1)), Duration::hours(1));
  // get_duration marks its keys used, including the malformed one.
  EXPECT_TRUE(f.unused().empty());
  EXPECT_EQ(f.problems(),
            std::vector<std::string>{"--bad=soon is not a duration (want e.g. 90s, 15m, 2h)"});
}

TEST(Flags, UnparseableValuesAreProblemsNotZeros) {
  const char* argv[] = {"prog",          "--scale=abc", "--seeds=2.5", "--jobs=4x",
                        "--upload=maybe", "--loads=1,x", "--ok=3"};
  const Flags f = Flags::parse(7, argv);
  EXPECT_DOUBLE_EQ(f.get_double("scale", 1.0), 1.0);
  EXPECT_EQ(f.get_int("seeds", 1), 1);
  EXPECT_EQ(f.get_int("seeds", 1), 1);  // a second read adds no second problem
  EXPECT_EQ(f.get_int("jobs", 1), 1);
  EXPECT_TRUE(f.get_bool("upload", true));
  EXPECT_EQ(f.get_double_list("loads", {}).size(), 2u);
  EXPECT_EQ(f.get_int("ok", 0), 3);
  EXPECT_EQ(f.problems(), (std::vector<std::string>{
                              "--jobs=4x is not an integer",
                              "--loads=1,x: x is not a number",
                              "--scale=abc is not a number",
                              "--seeds=2.5 is not an integer",
                              "--upload=maybe is not a boolean (want 1|0|true|false|yes|no)",
                          }));
}

TEST(Flags, StrictValuesStillParse) {
  const char* argv[] = {"prog", "--a=-3", "--b=1e3", "--c=no", "--d=0", "--e", "--f=0.5,2"};
  const Flags f = Flags::parse(7, argv);
  EXPECT_EQ(f.get_int("a", 0), -3);
  EXPECT_DOUBLE_EQ(f.get_double("b", 0.0), 1000.0);
  EXPECT_FALSE(f.get_bool("c", true));
  EXPECT_FALSE(f.get_bool("d", true));
  EXPECT_TRUE(f.get_bool("e", false));
  EXPECT_EQ(f.get_double_list("f", {}), (std::vector<double>{0.5, 2.0}));
  EXPECT_TRUE(f.problems().empty());
}

TEST(Flags, RejectedAndUnreadFlagsAreProblems) {
  const char* argv[] = {"prog", "--grid=leo,mars", "--help", "--typo=1"};
  const Flags f = Flags::parse(4, argv);
  (void)f.get_list("grid", {});
  f.reject("grid", "unknown access 'mars'");
  EXPECT_EQ(f.problems(), (std::vector<std::string>{"--grid=leo,mars: unknown access 'mars'",
                                                    "unknown flag --help",
                                                    "unknown flag --typo"}));
}

TEST(Flags, UnreadPositionalsAreProblems) {
  const char* argv[] = {"prog", "ping", "extra", "--count=1", "more"};
  const Flags f = Flags::parse(5, argv);
  EXPECT_EQ(f.get_int("count", 0), 1);
  EXPECT_EQ(f.problems(), (std::vector<std::string>{"unexpected argument 'ping'",
                                                    "unexpected argument 'extra'",
                                                    "unexpected argument 'more'"}));
  ASSERT_NE(f.positional(0), nullptr);  // reading the command leaves the rest
  EXPECT_EQ(f.problems(), (std::vector<std::string>{"unexpected argument 'extra'",
                                                    "unexpected argument 'more'"}));
}

TEST(ParseNumber, WholeFiniteNumbersOnly) {
  double d = -1.0;
  ASSERT_TRUE(parse_number("0.25", d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  ASSERT_TRUE(parse_number("-1e3", d));
  EXPECT_DOUBLE_EQ(d, -1000.0);
  for (const char* bad : {"", "abc", "1.5x", "4 ", "nan", "inf"}) {
    d = 7.0;
    EXPECT_FALSE(parse_number(bad, d)) << bad;
    EXPECT_DOUBLE_EQ(d, 7.0) << bad;  // untouched on failure
  }
  std::int64_t i = -1;
  ASSERT_TRUE(parse_integer("-42", i));
  EXPECT_EQ(i, -42);
  ASSERT_TRUE(parse_integer("9007199254740993", i));  // above 2^53: exact
  EXPECT_EQ(i, 9007199254740993);
  for (const char* bad : {"", "1.5", "1e3", "12x", "+", "99999999999999999999"}) {
    i = 7;
    EXPECT_FALSE(parse_integer(bad, i)) << bad;
    EXPECT_EQ(i, 7) << bad;
  }
}

// ---------------------------------------------------------- InlineFunction

/// Counts live copies via a shared counter — catches double-destroy and
/// missed-destroy bugs in the small-buffer move machinery.
struct DtorCounter {
  int* live;
  explicit DtorCounter(int* l) : live{l} { ++*live; }
  DtorCounter(const DtorCounter& o) : live{o.live} { ++*live; }
  DtorCounter(DtorCounter&& o) noexcept : live{o.live} { ++*live; }
  ~DtorCounter() { --*live; }
  void operator()() const {}
};

TEST(InlineFunction, SmallCallableStaysInline) {
  int hits = 0;
  util::InlineFunction f{[&hits] { ++hits; }};
  EXPECT_TRUE(f.is_inline());
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveTransfersOwnershipExactlyOnce) {
  int live = 0;
  {
    util::InlineFunction a{DtorCounter{&live}};
    EXPECT_EQ(live, 1);
    util::InlineFunction b{std::move(a)};
    EXPECT_EQ(live, 1);  // moved, not duplicated
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    util::InlineFunction c;
    c = std::move(b);
    EXPECT_EQ(live, 1);
    EXPECT_FALSE(static_cast<bool>(b));
    c();  // still invocable after two moves
  }
  EXPECT_EQ(live, 0);  // destroyed exactly once
}

TEST(InlineFunction, MoveAssignDestroysPreviousTarget) {
  int live_a = 0;
  int live_b = 0;
  util::InlineFunction f{DtorCounter{&live_a}};
  f = util::InlineFunction{DtorCounter{&live_b}};
  EXPECT_EQ(live_a, 0);  // old callable destroyed by the assignment
  EXPECT_EQ(live_b, 1);
  f.reset();
  EXPECT_EQ(live_b, 0);
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, OversizedCaptureSpillsToHeapAndStillDestroys) {
  int live = 0;
  struct Big {
    DtorCounter c;
    std::byte pad[util::InlineFunction::kInlineBytes]{};  // force > kInlineBytes
    explicit Big(int* l) : c{l} {}
    void operator()() const {}
  };
  {
    util::InlineFunction f{Big{&live}};
    EXPECT_FALSE(f.is_inline());
    EXPECT_EQ(live, 1);
    util::InlineFunction g{std::move(f)};  // heap move = pointer steal
    EXPECT_EQ(live, 1);
    g();
  }
  EXPECT_EQ(live, 0);
}

// -------------------------------------------------------------- SmallVector

TEST(SmallVector, StaysInlineUpToNThenSpills) {
  util::SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, CopyAndCompare) {
  util::SmallVector<std::pair<std::uint64_t, std::uint64_t>, 4> a;
  a.emplace_back(1, 2);
  a.emplace_back(3, 4);
  auto b = a;  // packet-header copy path
  EXPECT_EQ(a, b);
  b.emplace_back(5, 6);
  EXPECT_FALSE(a == b);
  a = b;
  EXPECT_EQ(a, b);
}

TEST(SmallVector, MoveStealsHeapAndMovesInline) {
  util::SmallVector<std::string, 2> inl;
  inl.push_back("x");
  util::SmallVector<std::string, 2> m1{std::move(inl)};
  ASSERT_EQ(m1.size(), 1u);
  EXPECT_EQ(m1[0], "x");

  util::SmallVector<std::string, 2> heap;
  for (int i = 0; i < 5; ++i) heap.push_back(std::to_string(i));
  EXPECT_FALSE(heap.is_inline());
  util::SmallVector<std::string, 2> m2{std::move(heap)};
  ASSERT_EQ(m2.size(), 5u);
  EXPECT_EQ(m2[4], "4");
  EXPECT_TRUE(heap.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(SmallVector, ClearKeepsCapacityAndReuses) {
  util::SmallVector<int, 4> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(42);
  EXPECT_EQ(v.back(), 42);
}

TEST(SmallVector, PopBackDestroysAndShrinks) {
  // pop_back powers the QUIC chunk requeue (drain a gathered chain
  // back-to-front); it must destroy the element and work inline and spilled.
  util::SmallVector<std::string, 2> v;
  for (int i = 0; i < 5; ++i) v.push_back(std::string(64, static_cast<char>('a' + i)));
  EXPECT_FALSE(v.is_inline());
  while (!v.empty()) {
    const std::size_t before = v.size();
    EXPECT_EQ(v.back(), std::string(64, static_cast<char>('a' + before - 1)));
    v.pop_back();
    EXPECT_EQ(v.size(), before - 1);
  }
  v.push_back("again");  // reusable after draining
  EXPECT_EQ(v.back(), "again");
}

// -------------------------------------------------------------------- Ring

TEST(Ring, FifoOrderAcrossWrapAroundAndGrowth) {
  util::Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head walks around the buffer, then let
  // the fill outgrow it several times while wrapped.
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 3 + round; ++i) r.push_back(int{next_in++});
    for (int i = 0; i < 2 + round / 2; ++i) {
      ASSERT_EQ(r.front(), next_out++);
      r.pop_front();
    }
    for (std::size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(r[i], next_out + static_cast<int>(i));
    }
  }
  EXPECT_GT(r.size(), 8 * util::Ring<int>::kBlockSlots);  // spans many blocks
  while (!r.empty()) {
    ASSERT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(Ring, SortedInsertIsStableForEqualKeys) {
  // The link's push_arrival contract: scan back from the tail past strictly
  // later keys, insert there — equal keys keep their arrival order.
  struct Item {
    int key;
    int seq;
  };
  util::Ring<Item> r;
  const auto insert_sorted = [&r](Item it) {
    std::size_t pos = r.size();
    while (pos > 0 && r[pos - 1].key > it.key) --pos;
    r.insert(pos, std::move(it));
  };
  // Rotate the head first so inserts shift across the wrap point.
  for (int i = 0; i < 5; ++i) r.push_back(Item{-1, -1});
  for (int i = 0; i < 5; ++i) r.pop_front();
  const int keys[] = {5, 3, 5, 1, 3, 5, 9, 1, 3, 0, 9, 5, 2, 2, 7, 5, 3, 1, 0, 8};
  int seq = 0;
  for (const int k : keys) insert_sorted(Item{k, seq++});
  ASSERT_EQ(r.size(), std::size(keys));
  for (std::size_t i = 1; i < r.size(); ++i) {
    ASSERT_LE(r[i - 1].key, r[i].key);
    if (r[i - 1].key == r[i].key) {
      EXPECT_LT(r[i - 1].seq, r[i].seq);
    }
  }
}

TEST(Ring, ReleasesBlocksAsItDrainsAndKeepsOneSpare) {
  using R = util::Ring<int>;
  R small;
  for (int i = 0; i < 10; ++i) small.push_back(int{i});
  EXPECT_EQ(small.capacity(), R::kBlockSlots);
  while (!small.empty()) small.pop_front();
  EXPECT_EQ(small.capacity(), R::kBlockSlots);  // the drained block stays as the spare
  for (int i = 0; i < 10; ++i) small.push_back(int{i});
  EXPECT_EQ(small.capacity(), R::kBlockSlots);  // and is reused, not reallocated

  R big;
  for (int i = 0; i < 200; ++i) big.push_back(int{i});
  ASSERT_GE(big.capacity(), 200u);
  for (int i = 0; i < 150; ++i) big.pop_front();
  // Blocks leave as the head passes: 50 live elements span at most 5 blocks.
  EXPECT_LE(big.capacity(), 6 * R::kBlockSlots);
  while (!big.empty()) big.pop_back();
  EXPECT_EQ(big.capacity(), R::kBlockSlots);  // drained: only the spare stays
  big.push_back(7);
  EXPECT_EQ(big.front(), 7);
}

TEST(Ring, MoveOnlyElementsAndSpilledPacketsSurviveGrowth) {
  util::Ring<std::unique_ptr<int>> owners;
  for (int i = 0; i < 100; ++i) owners.push_back(std::make_unique<int>(i));
  owners.insert(0, std::make_unique<int>(-1));
  ASSERT_EQ(owners.size(), 101u);
  EXPECT_EQ(*owners.front(), -1);
  for (std::size_t i = 1; i < owners.size(); ++i) EXPECT_EQ(*owners[i], static_cast<int>(i) - 1);

  // A pure ACK with more SACK blocks than the inline four lives partly on
  // the heap; relocation must carry the heap block along intact.
  util::Ring<sim::Packet> packets;
  for (int i = 0; i < 40; ++i) {
    sim::Packet p;
    p.uid = static_cast<std::uint64_t>(i);
    p.tcp.emplace();
    for (std::uint64_t b = 0; b < 6; ++b) p.tcp->sack.emplace_back(b * 100, b * 100 + 50);
    EXPECT_FALSE(p.tcp->sack.is_inline());
    packets.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const sim::Packet& p = packets[i];
    EXPECT_EQ(p.uid, i);
    ASSERT_TRUE(p.tcp.has_value());
    ASSERT_EQ(p.tcp->sack.size(), 6u);
    EXPECT_EQ(p.tcp->sack[5], (std::pair<std::uint64_t, std::uint64_t>{500, 550}));
  }
}

// ------------------------------------------------------------- IntervalSet

using Span = std::pair<std::uint64_t, std::uint64_t>;

/// The set's ranges in the order its descending iteration yields them.
std::vector<Span> descending(const util::IntervalSet& set) {
  std::vector<Span> out;
  for (auto it = set.rbegin(); it != set.rend(); ++it) out.emplace_back(it->start, it->end);
  return out;
}

TEST(IntervalSet, TableOfInsertsAndAdvances) {
  // An op is insert(a, b) expecting `result` newly covered units, or (when
  // `advance` is set) advance(a) expecting `result` as the new cursor.
  struct Op {
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t result;
    bool advance = false;
  };
  struct Case {
    const char* name;
    std::vector<Op> ops;
    std::vector<Span> ranges;  ///< final contents, highest first
  };
  const std::vector<Case> cases = {
      {"overlap", {{10, 20, 10}, {15, 30, 10}}, {{10, 30}}},
      {"overlap_below", {{10, 20, 10}, {5, 12, 5}}, {{5, 20}}},
      {"touching_above", {{10, 20, 10}, {20, 30, 10}}, {{10, 30}}},
      {"touching_below", {{10, 20, 10}, {0, 10, 10}}, {{0, 20}}},
      {"fill_bridges_two", {{0, 10, 10}, {20, 30, 10}, {10, 20, 10}}, {{0, 30}}},
      {"overlapping_bridge", {{0, 10, 10}, {20, 30, 10}, {5, 25, 10}}, {{0, 30}}},
      {"swallows_several", {{0, 5, 5}, {10, 15, 5}, {20, 25, 5}, {3, 22, 10}}, {{0, 25}}},
      {"duplicate_returns_zero", {{10, 20, 10}, {10, 20, 0}, {12, 18, 0}}, {{10, 20}}},
      {"duplicate_at_start_keeps_range", {{5, 10, 5}, {5, 6, 0}}, {{5, 10}}},
      {"empty_insert_is_noop", {{7, 7, 0}, {9, 3, 0}}, {}},
      {"gap_keeps_ranges_apart", {{10, 20, 10}, {21, 30, 9}}, {{21, 30}, {10, 20}}},
      {"descending_order", {{30, 40, 10}, {10, 20, 10}, {50, 60, 10}, {0, 5, 5}},
       {{50, 60}, {30, 40}, {10, 20}, {0, 5}}},
      {"advance_before_first_range", {{5, 10, 5}, {4, 0, 4, true}}, {{5, 10}}},
      {"advance_across_several",
       {{2, 5, 3}, {6, 9, 3}, {12, 15, 3}, {6, 0, 9, true}},
       {{12, 15}}},
      {"advance_into_range_middle", {{10, 20, 10}, {15, 0, 20, true}}, {}},
      {"advance_past_everything", {{1, 2, 1}, {4, 6, 2}, {100, 0, 100, true}}, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    util::IntervalSet set;
    for (const Op& op : c.ops) {
      const std::uint64_t got = op.advance ? set.advance(op.a) : set.insert(op.a, op.b);
      EXPECT_EQ(got, op.result);
    }
    EXPECT_EQ(descending(set), c.ranges);
    EXPECT_EQ(set.size(), c.ranges.size());
    EXPECT_EQ(set.empty(), c.ranges.empty());
  }
}

TEST(IntervalSet, PopFrontDropsTheLowestRange) {
  util::IntervalSet set;
  set.insert(40, 41);
  set.insert(10, 11);
  set.insert(20, 22);
  set.pop_front();
  EXPECT_EQ(descending(set), (std::vector<Span>{{40, 41}, {20, 22}}));
}

TEST(IntervalSet, RandomizedAgainstBitmapModel) {
  // 10k seeded inserts and advances checked against a std::vector<bool>:
  // every return value and, after every op, the full set of maximal runs.
  constexpr std::uint64_t kUniverse = 1024;
  Rng rng{2021};
  util::IntervalSet set;
  std::vector<bool> model(kUniverse + 1, false);  // the last slot stays false
  const auto draw = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  for (int step = 0; step < 10'000; ++step) {
    SCOPED_TRACE(step);
    if (rng.chance(0.1)) {
      const std::uint64_t from = draw(0, kUniverse - 1);
      // Model: everything below the cursor goes, then the run it lands on.
      std::uint64_t cursor = from;
      for (std::uint64_t i = 0; i < cursor; ++i) model[i] = false;
      while (model[cursor]) model[cursor++] = false;
      ASSERT_EQ(set.advance(from), cursor);
    } else {
      const std::uint64_t start = draw(0, kUniverse - 1);
      const std::uint64_t end = std::min(kUniverse, start + draw(1, 48));
      std::uint64_t fresh = 0;
      for (std::uint64_t i = start; i < end; ++i) {
        if (!model[i]) ++fresh;
        model[i] = true;
      }
      ASSERT_EQ(set.insert(start, end), fresh);
    }
    std::vector<Span> runs;
    for (std::uint64_t i = 0; i < kUniverse; ++i) {
      if (model[i] && (i == 0 || !model[i - 1])) runs.emplace_back(i, i);
      if (model[i]) runs.back().second = i + 1;
    }
    std::reverse(runs.begin(), runs.end());
    ASSERT_EQ(descending(set), runs);
  }
}

// ------------------------------------------------------------- RttEstimator

TEST(RttEstimator, FirstAndSecondSamplesFollowRfc6298) {
  cc::RttEstimator rtt;
  EXPECT_EQ(rtt.srtt, Duration::zero());
  rtt.update(Duration::millis(100));
  EXPECT_EQ(rtt.srtt, Duration::millis(100));
  EXPECT_EQ(rtt.rttvar, Duration::millis(50));
  rtt.update(Duration::millis(60));
  // rttvar = 3/4 * 50 ms + 1/4 * |100 - 60| ms; srtt = 7/8 * 100 ms + 1/8 * 60 ms.
  EXPECT_EQ(rtt.rttvar, Duration::millis(47) + Duration::micros(500));
  EXPECT_EQ(rtt.srtt, Duration::millis(95));
  // Odd nanosecond counts: each product truncates toward zero on its own.
  cc::RttEstimator odd;
  odd.update(Duration::nanos(333));
  EXPECT_EQ(odd.rttvar, Duration::nanos(166));
  odd.update(Duration::nanos(1000));
  EXPECT_EQ(odd.rttvar, Duration::nanos(124 + 166));
  EXPECT_EQ(odd.srtt, Duration::nanos(291 + 125));
}

TEST(Fnv1a, StableKnownValue) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

// ------------------------------------------------------------------ Logger

TEST(Logger, ParsesLevelNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("bogus").has_value());
  EXPECT_FALSE(parse_log_level("Warn").has_value());
}

TEST(Logger, ConcurrentWritesDoNotInterleave) {
  // Capture std::clog; each record must come out as one intact line even
  // with several threads logging at once (the sweep-pool scenario).
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  const LogLevel old_level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kInfo);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        SLP_LOG(kInfo, "worker", "thread=" << t << " line=" << i << " padpadpadpad");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Logger::instance().set_level(old_level);
  std::clog.rdbuf(old);

  std::istringstream lines{captured.str()};
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NE(line.find("[INFO] worker: thread="), std::string::npos) << line;
    EXPECT_NE(line.find("padpadpadpad"), std::string::npos) << line;
  }
  EXPECT_EQ(count, 200);
}

TEST(Logger, ThreadTimeSourcePrefixesSimTime) {
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  const LogLevel old_level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kInfo);

  const int owner = 0;
  Logger::set_time_source(&owner, [](const void*) -> std::int64_t {
    return 1'500'000'000;  // 1.5 s of sim time
  });
  SLP_LOG(kInfo, "sim", "with clock");
  Logger::clear_time_source(&owner);
  SLP_LOG(kInfo, "sim", "without clock");

  Logger::instance().set_level(old_level);
  std::clog.rdbuf(old);
  const std::string out = captured.str();
  EXPECT_NE(out.find("[t=1.500000000s] sim: with clock"), std::string::npos);
  EXPECT_EQ(out.find("[t=1.500000000s] sim: without clock"), std::string::npos);
}

}  // namespace
}  // namespace slp
