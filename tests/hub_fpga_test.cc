/**
 * @file
 * Tests for the FPGA hub backend model (Section 7 future work):
 * placement, fit checking, and the power trade against the MCU hubs.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/sensors.h"
#include "hub/fpga.h"
#include "hub/mcu.h"
#include "il/algorithm_info.h"
#include "il/lower.h"
#include "il/parser.h"
#include "support/error.h"

namespace sidewinder::hub {
namespace {

const char *motionIl = "ACC_X -> movingAvg(id=1, params={10});\n"
                       "ACC_Y -> movingAvg(id=2, params={10});\n"
                       "ACC_Z -> movingAvg(id=3, params={10});\n"
                       "1,2,3 -> vectorMagnitude(id=4);\n"
                       "4 -> minThreshold(id=5, params={15});\n"
                       "5 -> OUT;\n";

TEST(Fpga, ModelBasics)
{
    const FpgaModel fpga = ice40Hub();
    EXPECT_GT(fpga.logicCells, 0u);
    EXPECT_GT(fpga.staticPowerMw, 0.0);
    EXPECT_GT(fpga.reconfigSeconds, 0.0);
}

TEST(Fpga, EveryStandardAlgorithmHasABlock)
{
    for (const auto &info : il::standardAlgorithms())
        EXPECT_GT(fpgaCellCost(info.name, 256), 0u) << info.name;
    EXPECT_THROW(fpgaCellCost("quantumSort", 256), ConfigError);
}

TEST(Fpga, PlacesSignificantMotion)
{
    const auto placement = planFpgaPlacement(
        il::lower(il::parse(motionIl),
                  {{"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}}),
        ice40Hub());
    EXPECT_TRUE(placement.fits);
    EXPECT_EQ(placement.entries.size(), 5u);
    EXPECT_GT(placement.cellsUsed, 0u);
    EXPECT_GT(placement.dynamicPowerMw, 0.0);
}

TEST(Fpga, RejectsInvalidProgram)
{
    EXPECT_THROW(planFpgaPlacement(
                     il::lower(il::parse("ACC_X -> bogus(id=1);\n"
                                         "1 -> OUT;\n"),
                               {{"ACC_X", 50.0}}),
                     ice40Hub()),
                 SidewinderError);
}

TEST(Fpga, AllSixAppConditionsFitTheFabric)
{
    for (const auto &app : apps::allApps()) {
        const auto placement = planFpgaPlacement(
            il::lower(app->wakeCondition().compile(), app->channels()),
            ice40Hub());
        EXPECT_TRUE(placement.fits)
            << app->name() << " uses " << placement.cellsUsed;
    }
}

TEST(Fpga, TinyFabricDoesNotFitTheSirenCondition)
{
    FpgaModel tiny = ice40Hub();
    tiny.logicCells = 1000;
    const auto app = apps::makeSirenApp();
    const auto placement = planFpgaPlacement(
        il::lower(app->wakeCondition().compile(), app->channels()), tiny);
    EXPECT_FALSE(placement.fits);
}

TEST(Fpga, BeatsTheLm4f120OnTheSirenCondition)
{
    // The FPGA's dedicated datapaths make the audio FFT pipeline far
    // cheaper than the Cortex-M4 — the rationale for the paper's
    // planned FPGA prototype.
    const auto app = apps::makeSirenApp();
    const auto placement = planFpgaPlacement(
        il::lower(app->wakeCondition().compile(), app->channels()),
        ice40Hub());
    EXPECT_TRUE(placement.fits);
    EXPECT_LT(placement.totalPowerMw(ice40Hub()),
              lm4f120().activePowerMw);
}

TEST(Fpga, AccelConditionsCostMoreThanIdleFabric)
{
    const auto app = apps::makeStepsApp();
    const auto placement = planFpgaPlacement(
        il::lower(app->wakeCondition().compile(), app->channels()),
        ice40Hub());
    EXPECT_GT(placement.totalPowerMw(ice40Hub()),
              ice40Hub().staticPowerMw);
}

} // namespace
} // namespace sidewinder::hub
