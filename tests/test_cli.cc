/**
 * @file
 * The tools' shared front end (tools/cli.hh), in process: the strict
 * count/real/port parsers on malformed, signed, exponent, empty and
 * out-of-range text, the thread cap, the `--study` and `--metrics`
 * forms, the `--name=value` matcher, and cli::main's exit-code policy.
 * Values that would start threads or bind ports are tested only here,
 * never through a tool binary.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cli.hh"
#include "util/thread_pool.hh"

namespace dse {
namespace {

using cli::UsageError;

/** The UsageError message @p fn throws ("" if it throws none). */
template <typename Fn>
std::string
usageMessage(Fn fn)
{
    try {
        fn();
    } catch (const UsageError &e) {
        return e.what();
    }
    return "";
}

TEST(Cli, CountParsesWholeDecimalStrings)
{
    EXPECT_EQ(cli::parseCount("--n", "0"), 0u);
    EXPECT_EQ(cli::parseCount("--n", "42"), 42u);
    EXPECT_EQ(cli::parseCount("--n", "007"), 7u);
    EXPECT_EQ(cli::parseCount("--n", "18446744073709551615"),
              UINT64_MAX);
}

TEST(Cli, CountRejectsJunkSignsExponentsAndEmpty)
{
    for (const char *bad : {"abc", "12x", "-1", "+1", "1e3", "", " 5",
                            "5 ", "0x10", "1.0", "18446744073709551616"})
        EXPECT_THROW(cli::parseCount("--n", bad), UsageError) << bad;
}

TEST(Cli, CountErrorNamesTheFlagAndRange)
{
    const std::string msg =
        usageMessage([] { cli::parseCount("--max-sims", "abc", 1, 9); });
    EXPECT_NE(msg.find("--max-sims='abc'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1..9"), std::string::npos) << msg;
}

TEST(Cli, CountEnforcesRangeAndThreadCap)
{
    EXPECT_THROW(cli::parseCount("--points", "0", 1), UsageError);
    constexpr uint64_t cap = util::ThreadPool::kMaxThreads;
    EXPECT_EQ(cap, 1024u);
    EXPECT_EQ(cli::parseCount("--connections", "1024", 1, cap), 1024u);
    for (const char *big : {"1025", "4294967296", "18446744073709551615"})
        EXPECT_THROW(cli::parseCount("--workers", big, 0, cap), UsageError)
            << big;
}

TEST(Cli, PortIsSixteenBits)
{
    auto port = [](const std::string &text) {
        const std::string arg = "--port=" + text;
        cli::Arg a(arg.c_str());
        EXPECT_TRUE(a.has("--port"));
        return a.port();
    };
    EXPECT_EQ(port("0"), 0u);
    EXPECT_EQ(port("65535"), 65535u);
    // Cast through atoi, 70000 used to bind port 4464.
    for (const char *bad : {"65536", "70000", "-1", "abc", "", "80x"})
        EXPECT_THROW(port(bad), UsageError) << bad;
}

TEST(Cli, RealParsesWholeFiniteNumbers)
{
    EXPECT_EQ(cli::parseReal("--x", "2.5"), 2.5);
    EXPECT_EQ(cli::parseReal("--x", "1e3"), 1000.0);
    EXPECT_EQ(cli::parseReal("--x", "-0.5"), -0.5);
    EXPECT_EQ(cli::parseReal("--x", "0", 0), 0.0);
    for (const char *bad : {"abc", "12x", "", " 1", "1 ", "nan", "inf",
                            "-inf", "1e999"})
        EXPECT_THROW(cli::parseReal("--x", bad), UsageError) << bad;
}

TEST(Cli, RealEnforcesRange)
{
    EXPECT_THROW(cli::parseReal("--target-error", "-1", 0), UsageError);
    EXPECT_THROW(cli::parseReal("--x", "-1e-300", 0), UsageError);
    const std::string msg = usageMessage(
        [] { cli::parseReal("--duration", "-1", 0); });
    EXPECT_NE(msg.find("--duration"), std::string::npos) << msg;
    EXPECT_NE(msg.find(">= 0"), std::string::npos) << msg;
}

TEST(Cli, StudyForms)
{
    EXPECT_EQ(cli::parseStudy("memory"), study::StudyKind::MemorySystem);
    EXPECT_EQ(cli::parseStudy("memory-system"),
              study::StudyKind::MemorySystem);
    EXPECT_EQ(cli::parseStudy("processor"), study::StudyKind::Processor);
    for (const char *bad : {"typo", "", "Memory", "processor "})
        EXPECT_THROW(cli::parseStudy(bad), UsageError) << bad;
}

TEST(Cli, ArgMatchesWholeFlagNames)
{
    cli::Arg port("--port=7070");
    EXPECT_FALSE(port.is("--port"));
    EXPECT_TRUE(port.has("--port"));
    EXPECT_EQ(port.port(), 7070u);

    cli::Arg portFile("--port-file=/tmp/p");
    EXPECT_FALSE(portFile.has("--port"));
    EXPECT_TRUE(portFile.has("--port-file"));
    EXPECT_EQ(portFile.value(), "/tmp/p");

    cli::Arg empty("--app=");
    EXPECT_TRUE(empty.has("--app"));
    EXPECT_EQ(empty.value(), "");

    cli::Arg bare("--batch");
    EXPECT_FALSE(bare.has("--batch"));
    EXPECT_TRUE(bare.is("--batch"));
    EXPECT_FALSE(cli::Arg("--simpointx").is("--simpoint"));
}

TEST(Cli, ArgGettersNameTheMatchedFlag)
{
    cli::Arg a("--max-sims=abc");
    ASSERT_TRUE(a.has("--max-sims"));
    const std::string msg = usageMessage([&] { a.count(); });
    EXPECT_NE(msg.find("--max-sims"), std::string::npos) << msg;

    cli::Arg s("--study=typo");
    ASSERT_TRUE(s.has("--study"));
    EXPECT_THROW(s.study(), UsageError);

    const std::string unknown =
        usageMessage([] { cli::Arg("--bogus").unknown(); });
    EXPECT_NE(unknown.find("--bogus"), std::string::npos) << unknown;
}

TEST(Cli, MetricsForms)
{
    cli::Metrics table;
    EXPECT_TRUE(cli::Arg("--metrics").metrics(table));
    EXPECT_TRUE(table.on);
    EXPECT_EQ(table.path, "");

    cli::Metrics json;
    EXPECT_TRUE(cli::Arg("--metrics=out.json").metrics(json));
    EXPECT_TRUE(json.on);
    EXPECT_EQ(json.path, "out.json");

    cli::Metrics none;
    EXPECT_FALSE(cli::Arg("--metricsx").metrics(none));
    EXPECT_FALSE(cli::Arg("--metric").metrics(none));
    EXPECT_FALSE(none.on);
}

/** cli::main over a run() that throws what @p kind names. */
int
mainThrowing(const char *kind)
{
    static std::string thrown;
    thrown = kind;
    char tool[] = "tool";
    char *argv[] = {tool, nullptr};
    return cli::main(
        "tool", "usage: tool", [](int, char **) -> int {
            if (thrown == "usage")
                throw UsageError("bad flag");
            if (thrown == "invalid")
                throw std::invalid_argument("bad input");
            if (thrown == "range")
                throw std::out_of_range("vector::at");
            if (thrown == "runtime")
                throw std::runtime_error("io");
            if (thrown == "other")
                throw 42;
            return 7;
        },
        1, argv);
}

TEST(Cli, MainMapsExceptionsToExitCodes)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(mainThrowing("usage"), 1);
    EXPECT_NE(testing::internal::GetCapturedStdout().find("usage: tool"),
              std::string::npos);
    EXPECT_EQ(mainThrowing("invalid"), 2);
    // An .at() bug is not bad input.
    EXPECT_EQ(mainThrowing("range"), 3);
    EXPECT_EQ(mainThrowing("runtime"), 3);
    EXPECT_EQ(mainThrowing("other"), 4);
    EXPECT_EQ(mainThrowing("none"), 7);
}

TEST(Cli, MainAnswersHelpWithoutRunning)
{
    char tool[] = "tool", bad[] = "--bogus", help[] = "-h";
    char *argv[] = {tool, bad, help, nullptr};
    testing::internal::CaptureStdout();
    const int code = cli::main(
        "tool", "usage: tool",
        [](int, char **) -> int { throw std::runtime_error("ran"); }, 3,
        argv);
    EXPECT_EQ(code, 0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "usage: tool\n");
}

} // namespace
} // namespace dse
