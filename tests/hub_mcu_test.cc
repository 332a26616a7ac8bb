/**
 * @file
 * Tests for the MCU capability model: the paper's sizing findings —
 * the MSP430 runs accelerometer pipelines but not audio-rate FFT
 * pipelines; the siren detector needs the LM4F120 (Section 4 /
 * Table 2).
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "apps/predefined.h"
#include "core/sensors.h"
#include "hub/mcu.h"
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

TEST(Mcu, SelectForCostPicksCheapestSufficient)
{
    il::ProgramCost cost;
    cost.cyclesPerSecond = 1000.0;
    EXPECT_EQ(selectMcuForCost(cost).name, "MSP430");
    cost.cyclesPerSecond = 1e6;
    EXPECT_EQ(selectMcuForCost(cost).name, "LM4F120");
    cost.cyclesPerSecond = 1e12;
    EXPECT_THROW(selectMcuForCost(cost), CapabilityError);
}

TEST(Mcu, SelectForCostHonoursRamNotJustCycles)
{
    // The old selectMcuForLoad shortcut sized on cycles alone; a
    // condition can fit the MSP430's cycle budget and still blow its
    // 16 KB of SRAM. The full-cost path must escalate on RAM too.
    il::ProgramCost cost;
    cost.cyclesPerSecond = 1000.0;
    cost.ramBytes = 20 * 1024;
    EXPECT_EQ(selectMcuForCost(cost).name, "LM4F120");
    cost.ramBytes = 64 * 1024;
    EXPECT_THROW(selectMcuForCost(cost), CapabilityError);
}

TEST(Mcu, AccelerometerAppsFitTheMsp430)
{
    for (const auto &app : apps::accelerometerApps()) {
        const auto mcu = selectMcuForPlan(
            il::lower(app->wakeCondition().compile(), app->channels()));
        EXPECT_EQ(mcu.name, "MSP430") << app->name();
    }
}

TEST(Mcu, SirenNeedsTheLm4f120)
{
    const auto app = apps::makeSirenApp();
    const auto mcu = selectMcuForPlan(
        il::lower(app->wakeCondition().compile(), app->channels()));
    EXPECT_EQ(mcu.name, "LM4F120");
}

TEST(Mcu, MusicAndPhraseFitTheMsp430)
{
    // Table 2 of the paper: only the siren detector carries the
    // LM4F120's power cost.
    for (const char *name : {"music", "phrase"}) {
        const auto app = name == std::string("music")
                             ? apps::makeMusicJournalApp()
                             : apps::makePhraseApp();
        const auto mcu = selectMcuForPlan(
            il::lower(app->wakeCondition().compile(), app->channels()));
        EXPECT_EQ(mcu.name, "MSP430") << name;
    }
}

TEST(Mcu, PredefinedActivitiesFitTheMsp430)
{
    EXPECT_EQ(selectMcuForPlan(
                  il::lower(apps::significantMotionCondition().compile(),
                            core::accelerometerChannels()))
                  .name,
              "MSP430");
    EXPECT_EQ(selectMcuForPlan(
                  il::lower(apps::significantSoundCondition().compile(),
                            core::audioChannels()))
                  .name,
              "MSP430");
}

TEST(Mcu, RealTimePredicate)
{
    EXPECT_TRUE(canRunInRealTime(msp430(), 49'999.0));
    EXPECT_FALSE(canRunInRealTime(msp430(), 50'001.0));
}

} // namespace
} // namespace sidewinder::hub
