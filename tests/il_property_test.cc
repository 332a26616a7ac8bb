/**
 * @file
 * Property tests for the intermediate language:
 *  - randomly generated valid programs round-trip exactly through
 *    write() -> parse();
 *  - random byte strings never crash the lexer/parser (they either
 *    parse or throw ParseError);
 *  - every randomly generated valid program passes validation and
 *    installs on an engine;
 *  - the static analyzer never throws on any parser-accepted program,
 *    and its renderers cope with whatever it reports (its verdicts
 *    are pinned by tests/data/verdicts/mutants.golden).
 */

#include <gtest/gtest.h>

#include "engine_plan.h"
#include "hub/engine.h"
#include "il/analyze.h"
#include "il/parser.h"
#include "il/validate.h"
#include "il/writer.h"
#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::il {
namespace {

const std::vector<ChannelInfo> kChannels = {
    {"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}};

/**
 * Generate a random valid program: a few scalar branches (movingAvg /
 * expMovingAvg chains, possibly a window+reducer), an aggregation if
 * needed, and a terminal threshold.
 */
Program
randomProgram(sidewinder::Rng &rng)
{
    Program program;
    NodeId next_id = 1;
    std::vector<NodeId> tails;

    const auto branch_count = rng.uniformInt(1, 3);
    for (long b = 0; b < branch_count; ++b) {
        const char *channels[] = {"ACC_X", "ACC_Y", "ACC_Z"};
        SourceRef current =
            SourceRef::makeChannel(channels[rng.uniformInt(0, 2)]);

        const auto depth = rng.uniformInt(1, 3);
        for (long d = 0; d < depth; ++d) {
            Statement stmt;
            stmt.inputs = {current};
            stmt.id = next_id++;
            switch (rng.uniformInt(0, 2)) {
              case 0:
                stmt.algorithm = "movingAvg";
                stmt.params = {
                    static_cast<double>(rng.uniformInt(2, 20))};
                break;
              case 1:
                stmt.algorithm = "expMovingAvg";
                stmt.params = {rng.uniform(0.05, 1.0)};
                break;
              default:
                stmt.algorithm = "minThreshold";
                stmt.params = {rng.uniform(-10.0, 10.0)};
                break;
            }
            current = SourceRef::makeNode(stmt.id);
            program.statements.push_back(std::move(stmt));
        }
        tails.push_back(current.node);
    }

    if (tails.size() > 1) {
        Statement agg;
        for (NodeId tail : tails)
            agg.inputs.push_back(SourceRef::makeNode(tail));
        agg.algorithm = "vectorMagnitude";
        agg.id = next_id++;
        program.statements.push_back(agg);
        tails = {agg.id};
    }

    Statement thr;
    thr.inputs = {SourceRef::makeNode(tails[0])};
    thr.algorithm = "minThreshold";
    thr.id = next_id++;
    thr.params = {rng.uniform(0.0, 5.0)};
    program.statements.push_back(thr);

    Statement out;
    out.inputs = {SourceRef::makeNode(thr.id)};
    out.isOut = true;
    program.statements.push_back(out);
    return program;
}

class IlRoundTrip : public ::testing::TestWithParam<int>
{};

TEST_P(IlRoundTrip, WriteParseIsIdentity)
{
    sidewinder::Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 20; ++i) {
        const Program program = randomProgram(rng);
        EXPECT_EQ(parse(write(program)), program);
    }
}

TEST_P(IlRoundTrip, GeneratedProgramsValidateAndInstall)
{
    sidewinder::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
    for (int i = 0; i < 10; ++i) {
        const Program program = randomProgram(rng);
        EXPECT_NO_THROW(validate(program, kChannels));
        hub::Engine engine(kChannels);
        EXPECT_NO_THROW(engine.addCondition(1, test::planFor(engine, program)));
        // The engine accepts samples without raising.
        for (int s = 0; s < 25; ++s)
            engine.pushSamples({1.0, 2.0, 3.0}, s * 0.02);
        engine.drainWakeEvents();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlRoundTrip,
                         ::testing::Range(1, 9));

class IlFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(IlFuzz, RandomBytesNeverCrash)
{
    sidewinder::Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 200; ++i) {
        std::string garbage;
        const auto length = rng.uniformInt(0, 120);
        for (long c = 0; c < length; ++c)
            garbage.push_back(
                static_cast<char>(rng.uniformInt(1, 127)));
        try {
            const Program program = parse(garbage);
            // If it happened to parse, validation must not crash
            // either (it may throw ParseError).
            try {
                validate(program, kChannels);
            } catch (const ParseError &) {
            }
        } catch (const ParseError &) {
            // Expected for malformed input.
        }
    }
}

TEST_P(IlFuzz, MutatedValidProgramsNeverCrash)
{
    sidewinder::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
    for (int i = 0; i < 50; ++i) {
        Program program = randomProgram(rng);
        std::string text = write(program);
        // Flip a few characters.
        for (int m = 0; m < 3; ++m) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<long>(text.size()) - 1));
            text[pos] = static_cast<char>(rng.uniformInt(32, 126));
        }
        try {
            validate(parse(text), kChannels);
        } catch (const ParseError &) {
            // Either outcome is fine; crashing is not.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlFuzz, ::testing::Range(1, 5));

class IlAnalyzeProperty : public ::testing::TestWithParam<int>
{};

TEST_P(IlAnalyzeProperty, GeneratedProgramsAnalyzeClean)
{
    sidewinder::Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
    for (int i = 0; i < 20; ++i) {
        const Program program = randomProgram(rng);
        const AnalysisResult result = analyze(program, kChannels);
        EXPECT_TRUE(result.ok()) << renderText(result, "<generated>");
        EXPECT_GT(result.cost.cyclesPerSecond, 0.0);
        EXPECT_GT(result.cost.ramBytes, 0u);
    }
}

TEST_P(IlAnalyzeProperty, MutatedProgramsNeverThrowAndMatchValidate)
{
    sidewinder::Rng rng(static_cast<std::uint64_t>(GetParam()) + 2500);
    for (int i = 0; i < 50; ++i) {
        Program program = randomProgram(rng);
        std::string text = write(program);
        for (int m = 0; m < 3; ++m) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<long>(text.size()) - 1));
            text[pos] = static_cast<char>(rng.uniformInt(32, 126));
        }
        Program mutated;
        try {
            mutated = parse(text);
        } catch (const ParseError &) {
            continue; // Syntax errors never reach the analyzer.
        }
        AnalysisResult result;
        ASSERT_NO_THROW(result = analyze(mutated, kChannels)) << text;
        // The renderers must cope with whatever came out.
        EXPECT_FALSE(renderText(result, "<mutated>").empty());
        EXPECT_FALSE(renderJson(result, "<mutated>").empty());
    }
}

TEST_P(IlAnalyzeProperty, FuzzedTextNeverThrowsAndMatchesValidate)
{
    sidewinder::Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
    for (int i = 0; i < 200; ++i) {
        std::string garbage;
        const auto length = rng.uniformInt(0, 120);
        for (long c = 0; c < length; ++c)
            garbage.push_back(
                static_cast<char>(rng.uniformInt(1, 127)));
        Program program;
        try {
            program = parse(garbage);
        } catch (const ParseError &) {
            continue;
        }
        ASSERT_NO_THROW(analyze(program, kChannels)) << garbage;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlAnalyzeProperty,
                         ::testing::Range(1, 9));

} // namespace
} // namespace sidewinder::il
