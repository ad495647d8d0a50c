// Flag-parser tests: the npdp CLI's cli::Flags reads every command-line
// argument from outside the program, so each way argv can be wrong must
// be a UsageError before any subcommand work — an undeclared flag, a
// positional word, a repeated flag, a value flag with no value, a number
// out of range for its destination type, a value outside a choice list —
// and the generated usage must name each declared flag exactly once. The
// endpoint-list cases cover --peers, --targets and --replicas.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "dist/peer_group.hpp"
#include "net/loadgen.hpp"
#include "router/router.hpp"

namespace cellnpdp {
namespace {

using cli::Flags;
using cli::UsageError;

/// One value flag --x bound to a T, parsed from `value`.
template <class T>
T parse_one(const std::string& value) {
  T x{};
  Flags f("t", {"--x", value});
  f.value("x", &x, "");
  f.parse();
  return x;
}

template <class T>
void expect_rejected(const std::string& value) {
  EXPECT_THROW(parse_one<T>(value), UsageError) << "accepted '" << value << "'";
}

TEST(CliFlags, RangeComesFromTheDestinationType) {
  EXPECT_EQ(parse_one<std::uint16_t>("65535"), 65535);
  expect_rejected<std::uint16_t>("65536");
  expect_rejected<std::uint16_t>("70000");
  expect_rejected<std::uint16_t>("-1");

  EXPECT_EQ(parse_one<std::size_t>("18446744073709551615"),
            std::size_t(18446744073709551615ull));
  expect_rejected<std::size_t>("-1");
  expect_rejected<std::size_t>("18446744073709551616");

  EXPECT_EQ(parse_one<int>("-2147483648"), -2147483647 - 1);
  expect_rejected<int>("2147483648");
  expect_rejected<int>("4x");
  expect_rejected<int>("");
  expect_rejected<int>(" 4");
  expect_rejected<int>("0x10");

  EXPECT_DOUBLE_EQ(parse_one<double>("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_one<double>("-1e-3"), -1e-3);
  expect_rejected<double>("1e999");
  expect_rejected<double>("fast");
  expect_rejected<double>("3.0s");
}

TEST(CliFlags, AbsentFlagsKeepTheirDefaults) {
  long n = 1024;
  std::string host = "127.0.0.1";
  std::optional<int> deadline;
  bool report = false;
  Flags f("t", {"--n", "96"});
  f.value("n", &n, "")
      .value("host", &host, "")
      .value("deadline-ms", &deadline, "")
      .flag("report", &report, "");
  ASSERT_TRUE(f.parse());
  EXPECT_EQ(n, 96);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_FALSE(deadline.has_value());
  EXPECT_FALSE(report);
  EXPECT_TRUE(f.given("n"));
  EXPECT_FALSE(f.given("host"));
}

TEST(CliFlags, DuplicateFlagIsAnError) {
  long n = 0;
  bool dp = false;
  Flags f("t", {"--n", "1", "--n", "2"});
  f.value("n", &n, "");
  EXPECT_THROW(f.parse(), UsageError);
  Flags g("t", {"--dp", "--dp"});
  g.flag("dp", &dp, "");
  EXPECT_THROW(g.parse(), UsageError);
}

TEST(CliFlags, ChoiceListRejectsOtherValues) {
  enum class Kernel { Scalar, Native, Wide };
  Kernel k = Kernel::Native;
  std::string mode = "closed";
  const auto declare = [&](Flags& f) {
    f.choice("kernel", &k,
             {{"scalar", Kernel::Scalar},
              {"simd128", Kernel::Native},
              {"simd256", Kernel::Wide}},
             "")
        .choice("mode", &mode, {"closed", "open"}, "");
  };
  Flags ok("t", {"--kernel", "simd256", "--mode", "open"});
  declare(ok);
  ok.parse();
  EXPECT_EQ(k, Kernel::Wide);
  EXPECT_EQ(mode, "open");
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--kernel", "simd512"},
        std::vector<std::string>{"--kernel", "SIMD128"},
        std::vector<std::string>{"--mode", "half-open"}}) {
    Flags bad("t", args);
    declare(bad);
    EXPECT_THROW(bad.parse(), UsageError) << args[1];
  }
  // The default shows as its choice name.
  Flags shown("t");
  declare(shown);
  EXPECT_NE(shown.usage().find("(default simd256)"), std::string::npos);
  EXPECT_NE(shown.usage().find("scalar|simd128|simd256"), std::string::npos);
}

TEST(CliFlags, ValueFlagWithoutValueIsAnError) {
  long n = 7;
  std::string save;
  bool report = false;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--n"},
        std::vector<std::string>{"--save"},
        std::vector<std::string>{"--save", "--report"},
        std::vector<std::string>{"--n", "--report"}}) {
    Flags f("t", args);
    f.value("n", &n, "").value("save FILE", &save, "").flag("report", &report,
                                                            "");
    EXPECT_THROW(f.parse(), UsageError) << args[0];
  }
  EXPECT_EQ(n, 7);
  EXPECT_EQ(save, "");
}

TEST(CliFlags, BooleanFlagTakesNoValue) {
  bool dp = false;
  Flags f("t", {"--dp", "4096"});
  f.flag("dp", &dp, "");
  EXPECT_THROW(f.parse(), UsageError);
}

TEST(CliFlags, PositionalWordsAndUndeclaredFlagsAreErrors) {
  long n = 0;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"96"}, std::vector<std::string>{"-n", "96"},
        std::vector<std::string>{"--"}, std::vector<std::string>{"--n=96"},
        std::vector<std::string>{"--thread", "4"},
        std::vector<std::string>{"--n", "96", "extra"}}) {
    Flags f("t", args);
    f.value("n", &n, "");
    EXPECT_THROW(f.parse(), UsageError) << args[0];
  }
}

TEST(CliFlags, RequiredFlagMustBeGiven) {
  std::string file;
  Flags f("t", {});
  f.value("file FILE", &file, "").required();
  EXPECT_THROW(f.parse(), UsageError);
  Flags g("t", {"--file", "x.json"});
  g.value("file FILE", &file, "").required();
  EXPECT_TRUE(g.parse());
  EXPECT_EQ(file, "x.json");
}

TEST(CliFlags, DeclarationOnlyFlagsParseNothing) {
  long n = 5;
  Flags f("t");
  f.value("n", &n, "").required();
  EXPECT_FALSE(f.parse());
  EXPECT_EQ(n, 5);
}

TEST(CliFlags, DeclaringAFlagTwiceIsAProgrammingError) {
  long a = 0, b = 0;
  Flags f("t");
  f.value("n", &a, "");
  EXPECT_THROW(f.value("n", &b, ""), std::logic_error);
}

TEST(CliFlags, UsageNamesEachDeclaredFlagOnce) {
  long n = 1024;
  double frac = 0.99;
  std::string host = "127.0.0.1", save;
  std::optional<std::uint16_t> stats_port;
  bool report = false;
  std::vector<dist::PeerEndpoint> peers;
  Flags f("t");
  f.value("n", &n, "problem size")
      .value("frac", &frac, "a fraction")
      .value("host HOST", &host, "server host")
      .value("save FILE", &save, "write the table to FILE")
      .value("stats-port", &stats_port, "stats port")
      .value("peers", &peers, "peer list")
      .required()
      .flag("report", &report, "print a report");
  const std::string u = f.usage();
  for (const char* name :
       {"n", "frac", "host", "save", "stats-port", "peers", "report"}) {
    const std::string key = std::string("--") + name + " ";
    const std::size_t at = u.find(key);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_EQ(u.find(key, at + 1), std::string::npos) << name;
  }
  EXPECT_NE(u.find("--n N "), std::string::npos);
  EXPECT_NE(u.find("(default 1024)"), std::string::npos);
  EXPECT_NE(u.find("(default 0.99)"), std::string::npos);
  EXPECT_NE(u.find("--host HOST"), std::string::npos);
  EXPECT_NE(u.find("(default 127.0.0.1)"), std::string::npos);
  EXPECT_NE(u.find("--peers HOST:PORT,..."), std::string::npos);
  EXPECT_NE(u.find("(required)"), std::string::npos);
  // An empty string, an optional and a boolean show no default, and a
  // boolean no metavar.
  const auto line_of = [&u](const std::string& flag) {
    const std::size_t at = u.find("  " + flag + " ");
    return u.substr(at, u.find('\n', at) - at);
  };
  EXPECT_EQ(line_of("--save").find("(default"), std::string::npos);
  EXPECT_EQ(line_of("--stats-port").find("(default"), std::string::npos);
  EXPECT_EQ(line_of("--report").find("(default"), std::string::npos);
  EXPECT_EQ(line_of("--report").find("--report N"), std::string::npos);
}

TEST(EndpointList, ParsesAndValidates) {
  const auto eps = cli::parse_endpoint_list<dist::PeerEndpoint>(
      "127.0.0.1:9001,10.0.0.2:9002,localhost:80", "peers");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].host, "127.0.0.1");
  EXPECT_EQ(eps[0].port, 9001);
  EXPECT_EQ(eps[2].host, "localhost");
  EXPECT_EQ(eps[2].port, 80);
  for (const char* bad :
       {"no-port", "h:99999", "h:12x", "h:0", "h:", ":80", "h:1,h:99999",
        "", ",", "r1=h:80"})
    EXPECT_THROW(cli::parse_endpoint_list<dist::PeerEndpoint>(bad, "peers"),
                 UsageError)
        << "accepted '" << bad << "'";
  // Empty items between commas are skipped.
  EXPECT_EQ(
      cli::parse_endpoint_list<net::Endpoint>("a:1,,b:2,", "targets").size(),
      2u);
}

TEST(EndpointList, OnlyNamedEndpointsTakeANamePrefix) {
  const auto reps = cli::parse_endpoint_list<router::ReplicaEndpoint>(
      "r1=127.0.0.1:9001,10.0.0.2:9002", "replicas");
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].name, "r1");
  EXPECT_EQ(reps[0].host, "127.0.0.1");
  EXPECT_EQ(reps[0].port, 9001);
  EXPECT_EQ(reps[1].name, "10.0.0.2:9002");
  EXPECT_THROW(
      cli::parse_endpoint_list<net::Endpoint>("r1=h:80", "targets"),
      UsageError);
  EXPECT_THROW(cli::parse_endpoint_list<router::ReplicaEndpoint>(
                   "r1=h:99999", "replicas"),
               UsageError);
}

TEST(EndpointList, BindsAsAFlagValue) {
  std::vector<dist::PeerEndpoint> peers;
  Flags f("t", {"--peers", "h:99999,h:1"});
  f.value("peers", &peers, "");
  EXPECT_THROW(f.parse(), UsageError);
  Flags g("t", {"--peers", "a:1,b:2"});
  g.value("peers", &peers, "");
  g.parse();
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[1].host, "b");
}

}  // namespace
}  // namespace cellnpdp
