/**
 * @file
 * Tests for threshold self-tuning from application feedback (Section
 * 7 future work).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "engine_plan.h"
#include "hub/autotune.h"
#include "hub/engine.h"
#include "il/parser.h"
#include "support/error.h"

namespace sidewinder::hub {
namespace {

std::vector<il::ChannelInfo>
oneChannel()
{
    return {{"ACC_X", 50.0}};
}

il::Program
minThresholdProgram(double limit)
{
    return il::parse("ACC_X -> minThreshold(id=1, params={" +
                     std::to_string(limit) + "});\n1 -> OUT;\n");
}

/** Count wake-ups when feeding @p value for @p n samples. */
std::size_t
wakesFor(Engine &engine, double value, int n)
{
    for (int i = 0; i < n; ++i)
        engine.pushSamples({value}, i * 0.02);
    return engine.drainWakeEvents().size();
}

TEST(AutoTune, RequiresATunableStage)
{
    Engine engine(oneChannel());
    EXPECT_THROW(
        ThresholdAutoTuner(engine, 1,
                           il::parse("ACC_X -> movingAvg(id=1, "
                                     "params={5});\n1 -> OUT;\n")),
        ConfigError);
}

TEST(AutoTune, InstallsAtConstruction)
{
    Engine engine(oneChannel());
    ThresholdAutoTuner tuner(engine, 1, minThresholdProgram(10.0));
    EXPECT_TRUE(engine.hasCondition(1));
    EXPECT_DOUBLE_EQ(tuner.currentScale(), 1.0);
    EXPECT_GT(wakesFor(engine, 12.0, 5), 0u);
}

TEST(AutoTune, FalsePositiveStreakTightens)
{
    Engine engine(oneChannel());
    AutoTuneConfig config;
    config.falsePositiveStreak = 3;
    config.tightenFactor = 1.5;
    ThresholdAutoTuner tuner(engine, 1, minThresholdProgram(10.0),
                             config);

    // A distractor at 12 wakes the device; the app rejects it.
    EXPECT_GT(wakesFor(engine, 12.0, 1), 0u);
    tuner.reportFalsePositive();
    tuner.reportFalsePositive();
    EXPECT_DOUBLE_EQ(tuner.currentScale(), 1.0); // not yet
    tuner.reportFalsePositive();
    EXPECT_DOUBLE_EQ(tuner.currentScale(), 1.5);
    EXPECT_EQ(tuner.retuneCount(), 1u);

    // The distractor at 12 no longer wakes (threshold now 15); a
    // real event at 20 still does.
    EXPECT_EQ(wakesFor(engine, 12.0, 5), 0u);
    EXPECT_GT(wakesFor(engine, 20.0, 1), 0u);
}

TEST(AutoTune, TruePositivesResetTheStreak)
{
    Engine engine(oneChannel());
    AutoTuneConfig config;
    config.falsePositiveStreak = 2;
    ThresholdAutoTuner tuner(engine, 1, minThresholdProgram(10.0),
                             config);
    tuner.reportFalsePositive();
    tuner.reportTruePositive();
    tuner.reportFalsePositive();
    EXPECT_DOUBLE_EQ(tuner.currentScale(), 1.0);
}

TEST(AutoTune, SustainedTruePositivesRelax)
{
    Engine engine(oneChannel());
    AutoTuneConfig config;
    config.falsePositiveStreak = 1;
    config.tightenFactor = 2.0;
    config.relaxAfterTruePositives = 5;
    config.relaxFactor = 0.5;
    ThresholdAutoTuner tuner(engine, 1, minThresholdProgram(10.0),
                             config);

    tuner.reportFalsePositive();
    EXPECT_DOUBLE_EQ(tuner.currentScale(), 2.0);
    for (int i = 0; i < 5; ++i)
        tuner.reportTruePositive();
    EXPECT_DOUBLE_EQ(tuner.currentScale(), 1.0);
}

TEST(AutoTune, ScaleIsBounded)
{
    Engine engine(oneChannel());
    AutoTuneConfig config;
    config.falsePositiveStreak = 1;
    config.tightenFactor = 10.0;
    config.maxScale = 3.0;
    ThresholdAutoTuner tuner(engine, 1, minThresholdProgram(10.0),
                             config);
    tuner.reportFalsePositive();
    tuner.reportFalsePositive();
    EXPECT_DOUBLE_EQ(tuner.currentScale(), 3.0);
}

TEST(AutoTune, BandThresholdShrinksAroundCenter)
{
    Engine engine(oneChannel());
    AutoTuneConfig config;
    config.falsePositiveStreak = 1;
    config.tightenFactor = 2.0;
    ThresholdAutoTuner tuner(
        engine, 1,
        il::parse("ACC_X -> bandThreshold(id=1, params={2,6});\n"
                  "1 -> OUT;\n"),
        config);

    // Band edges wake initially.
    EXPECT_GT(wakesFor(engine, 2.5, 1), 0u);
    tuner.reportFalsePositive();
    // Band is now [3, 5]: 2.5 is excluded, 4 still admitted.
    EXPECT_EQ(wakesFor(engine, 2.5, 5), 0u);
    EXPECT_GT(wakesFor(engine, 4.0, 1), 0u);
}

TEST(AutoTune, OtherConditionsUnaffectedByRetuning)
{
    Engine engine(oneChannel());
    engine.addCondition(7, test::planFor(engine, minThresholdProgram(10.0)));
    AutoTuneConfig config;
    config.falsePositiveStreak = 1;
    config.tightenFactor = 2.0;
    ThresholdAutoTuner tuner(engine, 1, minThresholdProgram(10.0),
                             config);
    tuner.reportFalsePositive();

    // Condition 7 still wakes at the original threshold.
    for (int i = 0; i < 3; ++i)
        engine.pushSamples({12.0}, i * 0.02);
    bool condition7_fired = false;
    for (const auto &event : engine.drainWakeEvents())
        condition7_fired |= event.conditionId == 7;
    EXPECT_TRUE(condition7_fired);
}

TEST(AutoTune, NonSharingEngineKeepsDuplicateStatements)
{
    // Two identical movingAvg statements: a sharing engine holds 4
    // nodes, a non-sharing one 5, before and after a retune.
    std::ifstream in(std::string(SW_TEST_DATA_DIR) +
                     "/sw101_duplicate_subtree.il");
    ASSERT_TRUE(in);
    std::ostringstream text;
    text << in.rdbuf();

    Engine engine(oneChannel(), /*share_nodes=*/false);
    AutoTuneConfig config;
    config.falsePositiveStreak = 1;
    ThresholdAutoTuner tuner(engine, 1, il::parse(text.str()), config);
    EXPECT_EQ(engine.nodeCount(), 5u);
    tuner.reportFalsePositive();
    EXPECT_EQ(tuner.retuneCount(), 1u);
    EXPECT_EQ(engine.nodeCount(), 5u);
}

} // namespace
} // namespace sidewinder::hub
