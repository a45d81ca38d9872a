// Tests for the CLI flag parser shared by the kooza_* tools.
#include <gtest/gtest.h>

#include "../tools/cli_util.hpp"

namespace {

using kooza::cli::Args;

Args make(std::vector<std::string> argv, std::set<std::string> switches = {}) {
    std::vector<char*> ptrs;
    ptrs.push_back(const_cast<char*>("prog"));
    for (auto& a : argv) ptrs.push_back(a.data());
    return Args(int(ptrs.size()), ptrs.data(), std::move(switches));
}

TEST(CliArgs, PositionalAndFlags) {
    auto args = make({"trace-dir", "--count", "42", "--out", "/tmp/x"});
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "trace-dir");
    EXPECT_EQ(args.get_u64("count", 0), 42u);
    EXPECT_EQ(args.get("out", ""), "/tmp/x");
}

TEST(CliArgs, DefaultsWhenAbsent) {
    auto args = make({"x"});
    EXPECT_EQ(args.get_u64("count", 7), 7u);
    EXPECT_DOUBLE_EQ(args.get_double("rate", 2.5), 2.5);
    EXPECT_EQ(args.get("out", "fallback"), "fallback");
}

TEST(CliArgs, DoubleParsing) {
    auto args = make({"--rate", "12.75"});
    EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 12.75);
    EXPECT_TRUE(args.positional().empty());
}

TEST(CliArgs, ValuelessFlagIsBooleanSwitch) {
    // A flag followed by another flag (or the end of the line) is a
    // boolean switch — how kooza_capture spells --stream/--no-latencies.
    auto args = make({"dir", "--stream", "--count", "5"});
    EXPECT_TRUE(args.has("stream"));
    EXPECT_FALSE(args.has("count-missing"));
    EXPECT_EQ(args.get_u64("count", 0), 5u);
    auto tail = make({"dir", "--count"});
    EXPECT_TRUE(tail.has("count"));
    // Reading a switch as a valued flag still fails loudly.
    EXPECT_THROW((void)tail.get_u64("count", 0), std::invalid_argument);
}

TEST(CliArgs, InterleavedOrder) {
    auto args = make({"--a", "1", "pos1", "--b", "2", "pos2"});
    EXPECT_EQ(args.positional(), (std::vector<std::string>{"pos1", "pos2"}));
    EXPECT_EQ(args.get("a", ""), "1");
    EXPECT_EQ(args.get("b", ""), "2");
}

TEST(CliArgs, EmptyCommandLine) {
    auto args = make({});
    EXPECT_TRUE(args.positional().empty());
}

TEST(CliArgs, RejectsTrailingJunkOnIntegers) {
    // "--count 10x" used to parse as 10 via std::stoull's prefix rule;
    // now the whole field must be digits.
    auto args = make({"--count", "10x"});
    EXPECT_THROW((void)args.get_u64("count", 0), std::invalid_argument);
    EXPECT_THROW((void)make({"--count", "1 2"}).get_u64("count", 0),
                 std::invalid_argument);
    EXPECT_THROW((void)make({"--count", "0x10"}).get_u64("count", 0),
                 std::invalid_argument);
}

TEST(CliArgs, RejectsNegativeIntegers) {
    // "--count -3" used to wrap to 2^64-3 through stoull; it must fail.
    auto args = make({"--count", "-3"});
    EXPECT_THROW((void)args.get_u64("count", 0), std::invalid_argument);
}

TEST(CliArgs, RejectsOutOfRangeIntegers) {
    auto args = make({"--count", "99999999999999999999999999"});
    EXPECT_THROW((void)args.get_u64("count", 0), std::invalid_argument);
}

TEST(CliArgs, RejectsTrailingJunkOnDoubles) {
    EXPECT_THROW((void)make({"--rate", "1.5qps"}).get_double("rate", 0.0),
                 std::invalid_argument);
    EXPECT_THROW((void)make({"--rate", "nanx"}).get_double("rate", 0.0),
                 std::invalid_argument);
    // Plain scientific notation still parses.
    EXPECT_DOUBLE_EQ(make({"--rate", "2e2"}).get_double("rate", 0.0), 200.0);
}

TEST(CliArgs, RegisteredSwitchesNeverConsumeAValue) {
    // "kooza_capture --closed-loop /tmp/dir": without registration the
    // parser swallowed the directory as the switch's value and the tool
    // saw zero positionals.
    auto args = make({"--closed-loop", "/tmp/dir", "--count", "5"},
                     {"closed-loop"});
    EXPECT_TRUE(args.has("closed-loop"));
    EXPECT_EQ(args.get("closed-loop", "sentinel"), "");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "/tmp/dir");
    EXPECT_EQ(args.get_u64("count", 0), 5u);
    // Unregistered flags keep the old greedy behaviour.
    auto greedy = make({"--out", "/tmp/dir"});
    EXPECT_EQ(greedy.get("out", ""), "/tmp/dir");
    EXPECT_TRUE(greedy.positional().empty());
}

TEST(CliArgs, ErrorNamesTheFlag) {
    try {
        (void)make({"--chunk-records", "64k"}).get_u64("chunk-records", 0);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--chunk-records"), std::string::npos) << msg;
        EXPECT_NE(msg.find("64k"), std::string::npos) << msg;
    }
}

TEST(CliArgs, UnknownFlagNamesTheFirstFlagNotListed) {
    // "kooza_capture oltp DIR --coutn 50" parsed and ran at the default
    // count; the tools now reject every flag they do not list.
    const std::set<std::string> known{"count", "seed", "stream"};
    auto typo = make({"oltp", "dir", "--coutn", "50", "--seed", "7"}, {"stream"});
    EXPECT_EQ(typo.unknown_flag(known), "coutn");
    EXPECT_EQ(typo.positional(), (std::vector<std::string>{"oltp", "dir"}));
    EXPECT_EQ(make({"dir", "--count", "5", "--stream"}, {"stream"}).unknown_flag(known),
              std::nullopt);
    EXPECT_EQ(make({"dir"}).unknown_flag(known), std::nullopt);
    // A switch the tool does not know is a flag like any other.
    EXPECT_EQ(make({"dir", "--help"}).unknown_flag(known), "help");
    // Several unknown flags: the first in name order.
    EXPECT_EQ(make({"--zeta", "1", "--alpha", "2", "--count", "3"}).unknown_flag(known),
              "alpha");
    // "--" alone is the flag with the empty name.
    EXPECT_EQ(make({"dir", "--", "x"}).unknown_flag(known), "");
}

}  // namespace
