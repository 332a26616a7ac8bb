/**
 * @file
 * Tests for the MCU capability model and the placer's homes over the
 * MCU ladder: the paper's sizing findings — the MSP430 runs
 * accelerometer pipelines but not audio-rate FFT pipelines; the siren
 * detector needs the LM4F120 (Section 4 / Table 2).
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "apps/predefined.h"
#include "core/sensors.h"
#include "hub/mcu.h"
#include "hub/placer.h"
#include "il/lower.h"
#include "support/error.h"

namespace sidewinder::hub {
namespace {

TEST(Mcu, PaperPowerNumbers)
{
    EXPECT_DOUBLE_EQ(msp430().activePowerMw, 3.6);
    EXPECT_DOUBLE_EQ(lm4f120().activePowerMw, 49.4);
}

TEST(Mcu, AvailableListIsCheapestFirst)
{
    const auto &mcus = availableMcus();
    ASSERT_GE(mcus.size(), 2u);
    for (std::size_t i = 1; i < mcus.size(); ++i)
        EXPECT_LE(mcus[i - 1].activePowerMw, mcus[i].activePowerMw);
}

/** The MCU the placer homes a load charged at @p cost on: on the
 *  MCU ladder a demand row reads only the charged cost. */
std::string
ladderHome(const il::ProgramCost &cost)
{
    return homeConditions({}, cost, mcuExecutors()).executorName;
}

/** The MCU the placer homes @p app's wake condition on. */
std::string
ladderHome(const apps::Application &app)
{
    const il::ExecutionPlan plan =
        il::lower(app.wakeCondition().compile(), app.channels());
    return homeConditions({&plan, 1}, plan.cost(), mcuExecutors())
        .executorName;
}

TEST(Mcu, SelectForCostPicksCheapestSufficient)
{
    il::ProgramCost cost;
    cost.cyclesPerSecond = 1000.0;
    EXPECT_EQ(ladderHome(cost), "MSP430");
    cost.cyclesPerSecond = 1e6;
    EXPECT_EQ(ladderHome(cost), "LM4F120");
    cost.cyclesPerSecond = 1e12;
    EXPECT_THROW(ladderHome(cost), CapabilityError);
}

TEST(Mcu, SelectForCostHonoursRamNotJustCycles)
{
    // A condition can fit the MSP430's cycle budget and still blow
    // its 16 KB of SRAM; the placer escalates on RAM too, and names
    // the budget that binds when nothing fits.
    il::ProgramCost cost;
    cost.cyclesPerSecond = 1000.0;
    cost.ramBytes = 20 * 1024;
    EXPECT_EQ(ladderHome(cost), "LM4F120");
    cost.ramBytes = 64 * 1024;
    try {
        ladderHome(cost);
        FAIL() << "a 64 KB load fits no MCU";
    } catch (const CapabilityError &error) {
        EXPECT_STREQ(error.what(),
                     "no hub executor can home the conditions "
                     "(MSP430 [mcu] unfit; ram 65536 > 16384 B, "
                     "LM4F120 [mcu] unfit; ram 65536 > 32768 B)");
    }
}

TEST(Mcu, AccelerometerAppsFitTheMsp430)
{
    for (const auto &app : apps::accelerometerApps())
        EXPECT_EQ(ladderHome(*app), "MSP430") << app->name();
}

TEST(Mcu, SirenNeedsTheLm4f120)
{
    EXPECT_EQ(ladderHome(*apps::makeSirenApp()), "LM4F120");
}

TEST(Mcu, MusicAndPhraseFitTheMsp430)
{
    // Table 2 of the paper: only the siren detector carries the
    // LM4F120's power cost.
    EXPECT_EQ(ladderHome(*apps::makeMusicJournalApp()), "MSP430");
    EXPECT_EQ(ladderHome(*apps::makePhraseApp()), "MSP430");
}

TEST(Mcu, PredefinedActivitiesFitTheMsp430)
{
    const il::ExecutionPlan motion =
        il::lower(apps::significantMotionCondition().compile(),
                  core::accelerometerChannels());
    const il::ExecutionPlan sound =
        il::lower(apps::significantSoundCondition().compile(),
                  core::audioChannels());
    EXPECT_EQ(placeCondition(motion, mcuExecutors()).executorName,
              "MSP430");
    EXPECT_EQ(placeCondition(sound, mcuExecutors()).executorName,
              "MSP430");
}

TEST(Mcu, RealTimePredicate)
{
    EXPECT_TRUE(canRunInRealTime(msp430(), 49'999.0));
    EXPECT_FALSE(canRunInRealTime(msp430(), 50'001.0));
}

} // namespace
} // namespace sidewinder::hub
