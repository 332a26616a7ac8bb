/**
 * @file
 * Tests for the IL lowering pass and the ExecutionPlan: dedupe
 * behavior, cost agreement with the analyzer, toProgram round-trips,
 * and a renderPlan golden corpus over every .il file in tests/data/
 * (regenerate with SW_UPDATE_GOLDENS=1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "il/analyze.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/plan.h"
#include "il/validate.h"
#include "il/writer.h"
#include "support/error.h"

namespace sidewinder::il {
namespace {

/** The default prototype channel set (mirrors core::allChannels()). */
const std::vector<ChannelInfo> kChannels = {{"ACC_X", 50.0},
                                            {"ACC_Y", 50.0},
                                            {"ACC_Z", 50.0},
                                            {"AUDIO", 4000.0},
                                            {"BARO", 20.0}};

const char *const kDuplicateBranches =
    "ACC_X -> movingAvg(id=1, params={10});\n"
    "ACC_X -> movingAvg(id=2, params={10});\n"
    "1 -> minThreshold(id=3, params={5});\n"
    "2 -> maxThreshold(id=4, params={-5});\n"
    "3,4 -> or(id=5);\n"
    "5 -> OUT;\n";

TEST(Lower, DedupesDuplicateSubtreesByDefault)
{
    const Program p = parse(kDuplicateBranches);
    const ExecutionPlan plan = lower(p, kChannels);
    // The two identical movingAvg branches collapse to one node.
    EXPECT_EQ(plan.nodeCount(), 4u);

    // Both stages of two identical chains merge, transitively.
    EXPECT_EQ(lower(parse("AUDIO -> window(id=1, params={64});\n"
                          "1 -> rms(id=2);\n"
                          "AUDIO -> window(id=3, params={64});\n"
                          "3 -> rms(id=4);\n"
                          "2,4 -> or(id=5);\n"
                          "5 -> OUT;\n"),
                    kChannels)
                  .nodeCount(),
              3u);
    // Stages that differ only in a parameter stay apart.
    EXPECT_EQ(lower(parse("ACC_X -> movingAvg(id=1, params={10});\n"
                          "ACC_X -> movingAvg(id=2, params={20});\n"
                          "1,2 -> vectorMagnitude(id=3);\n"
                          "3 -> OUT;\n"),
                    kChannels)
                  .nodeCount(),
              3u);
}

TEST(Lower, PreservesDuplicatesWhenDedupeIsOff)
{
    const Program p = parse(kDuplicateBranches);
    const ExecutionPlan plan = lower(p, kChannels, LowerOptions{false});
    EXPECT_EQ(plan.nodeCount(), 5u);
}

TEST(Lower, RejectsInvalidPrograms)
{
    EXPECT_THROW(lower(parse("ACC_X -> bogus(id=1);\n1 -> OUT;\n"),
                       kChannels),
                 ParseError);
    EXPECT_THROW(lower(Program{}, kChannels), ParseError);
}

TEST(Lower, InputRefsResolveToChannelsAndNodes)
{
    const Program p =
        parse("ACC_X -> movingAvg(id=1, params={5});\n"
              "1 -> minThreshold(id=2, params={2});\n"
              "2 -> OUT;\n");
    const ExecutionPlan plan = lower(p, kChannels);
    ASSERT_EQ(plan.nodeCount(), 2u);
    ASSERT_EQ(plan.inputCounts[0], 1u);
    // Channel refs encode as -(index + 1); ACC_X is plan channel 0.
    EXPECT_EQ(plan.inputsOf(0)[0], -1);
    ASSERT_EQ(plan.inputCounts[1], 1u);
    EXPECT_EQ(plan.inputsOf(1)[0], 0);
    EXPECT_EQ(plan.outNode, 1);
    EXPECT_EQ(plan.primaryChannel, 0);
    EXPECT_EQ(plan.sourceIds[0], 1);
    EXPECT_EQ(plan.sourceIds[1], 2);
}

TEST(Lower, NodeCountMatchesAnalyzerPlanNodeCount)
{
    for (const auto &app : apps::allApps()) {
        const Program p = app->wakeCondition().compile();
        const AnalysisResult analysis = analyze(p, app->channels());
        ASSERT_TRUE(analysis.ok()) << app->name();
        EXPECT_EQ(lower(p, app->channels()).nodeCount(),
                  analysis.cost.planNodeCount)
            << app->name();
    }
}

TEST(Plan, CostAgreesWithAnalyzer)
{
    for (const auto &app : apps::allApps()) {
        const Program p = app->wakeCondition().compile();
        const AnalysisResult analysis = analyze(p, app->channels());
        ASSERT_TRUE(analysis.ok()) << app->name();
        const ProgramCost cost = lower(p, app->channels()).cost();
        EXPECT_DOUBLE_EQ(cost.cyclesPerSecond,
                         analysis.cost.cyclesPerSecond)
            << app->name();
        EXPECT_EQ(cost.ramBytes, analysis.cost.ramBytes)
            << app->name();
        EXPECT_DOUBLE_EQ(cost.wakeRateBoundHz,
                         analysis.cost.wakeRateBoundHz)
            << app->name();
        EXPECT_EQ(cost.planNodeCount, analysis.cost.planNodeCount)
            << app->name();
    }
}

TEST(Plan, ToProgramRoundTripsThroughLowering)
{
    for (const auto &app : apps::allApps()) {
        const Program p = app->wakeCondition().compile();
        const ExecutionPlan plan = lower(p, app->channels());
        const Program canonical = plan.toProgram();
        // The canonical program re-validates and re-lowers to the
        // same plan rendering (ids are dense, so this is a fixpoint).
        EXPECT_NO_THROW(validate(canonical, app->channels()))
            << app->name();
        EXPECT_EQ(renderPlan(lower(canonical, app->channels())),
                  renderPlan(plan))
            << app->name();
    }
}

TEST(Plan, CanonicalKeysUseFullPrecisionParams)
{
    // Two params that agree to 6 significant digits but differ in
    // the 17-digit rendering must not collide.
    const std::vector<std::string> none;
    const std::string a =
        canonicalNodeKey("minThreshold", {1.0000001}, none);
    const std::string b =
        canonicalNodeKey("minThreshold", {1.00000011}, none);
    EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------
// Golden corpus: renderPlan output for every tests/data/*.il file is
// pinned under tests/data/plans/<stem>.plan. Error files pin the
// lowering error text instead. Regenerate with SW_UPDATE_GOLDENS=1.

std::filesystem::path
dataDir()
{
    return std::filesystem::path(SW_TEST_DATA_DIR);
}

std::string
planTextFor(const std::string &source)
{
    try {
        return renderPlan(lower(parse(source), kChannels));
    } catch (const SidewinderError &error) {
        return std::string("error: ") + error.what() + "\n";
    }
}

TEST(PlanGoldens, CorpusMatchesPinnedRenderings)
{
    const bool update = std::getenv("SW_UPDATE_GOLDENS") != nullptr;
    const auto plans_dir = dataDir() / "plans";
    if (update)
        std::filesystem::create_directories(plans_dir);

    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dataDir()))
        if (entry.path().extension() == ".il")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 20u) << "corpus went missing";

    for (const auto &path : files) {
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        std::ostringstream text;
        text << in.rdbuf();
        const std::string actual = planTextFor(text.str());

        const auto golden_path =
            plans_dir / (path.stem().string() + ".plan");
        if (update) {
            std::ofstream out(golden_path);
            ASSERT_TRUE(out) << golden_path;
            out << actual;
            continue;
        }

        std::ifstream golden(golden_path);
        ASSERT_TRUE(golden)
            << golden_path
            << " missing — regenerate with SW_UPDATE_GOLDENS=1";
        std::ostringstream expected;
        expected << golden.rdbuf();
        EXPECT_EQ(actual, expected.str()) << path.filename();
    }
}

} // namespace
} // namespace sidewinder::il
