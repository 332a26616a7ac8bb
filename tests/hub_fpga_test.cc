/**
 * @file
 * Tests for the FPGA hub backend model (Section 7 future work): the
 * placer's fabric demand rows, fit checking, and the power trade
 * against the MCU hubs.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/sensors.h"
#include "hub/fpga.h"
#include "hub/mcu.h"
#include "hub/placer.h"
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

/** The placer's demand row for @p plan on @p fpga alone. */
PlacementDemand
fabricRow(const il::ExecutionPlan &plan, const FpgaModel &fpga = ice40Hub())
{
    return demandFor({&plan, 1}, fpgaExecutor(fpga), plan.cost());
}

/** The fabric's power running @p plan alone: static plus dynamic. */
double
fabricPowerMw(const il::ExecutionPlan &plan)
{
    return ice40Hub().staticPowerMw + fabricRow(plan).dynamicPowerMw;
}

il::ExecutionPlan
appPlan(const apps::Application &app)
{
    return il::lower(app.wakeCondition().compile(), app.channels());
}

TEST(Fpga, PlacesSignificantMotion)
{
    const il::ExecutionPlan plan = il::lower(
        il::parse(motionIl),
        {{"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}});
    const PlacementDemand row = fabricRow(plan);
    EXPECT_TRUE(row.feasible);
    // One block per node: three moving averages, the magnitude and
    // the threshold.
    EXPECT_EQ(plan.nodeCount(), 5u);
    EXPECT_EQ(row.logicCells, 3 * 120u + 350u + 40u);
    EXPECT_GT(row.dynamicPowerMw, 0.0);
}

TEST(Fpga, RejectsInvalidProgram)
{
    EXPECT_THROW(fabricRow(il::lower(il::parse("ACC_X -> bogus(id=1);\n"
                                               "1 -> OUT;\n"),
                                     {{"ACC_X", 50.0}})),
                 SidewinderError);
}

TEST(Fpga, AllSixAppConditionsFitTheFabric)
{
    for (const auto &app : apps::allApps()) {
        const PlacementDemand row = fabricRow(appPlan(*app));
        EXPECT_TRUE(row.feasible)
            << app->name() << " uses " << row.logicCells;
    }
}

TEST(Fpga, TinyFabricDoesNotFitTheSirenCondition)
{
    FpgaModel tiny = ice40Hub();
    tiny.logicCells = 1000;
    const il::ExecutionPlan plan = appPlan(*apps::makeSirenApp());
    EXPECT_FALSE(fabricRow(plan, tiny).feasible);
    EXPECT_FALSE(placeCondition(plan, {fpgaExecutor(tiny)}).placed());
}

TEST(Fpga, BeatsTheLm4f120OnTheSirenCondition)
{
    // The FPGA's dedicated datapaths make the audio FFT pipeline far
    // cheaper than the Cortex-M4 — the rationale for the paper's
    // planned FPGA prototype.
    const il::ExecutionPlan plan = appPlan(*apps::makeSirenApp());
    EXPECT_TRUE(fabricRow(plan).feasible);
    EXPECT_LT(fabricPowerMw(plan), lm4f120().activePowerMw);
}

TEST(Fpga, AccelConditionsCostMoreThanIdleFabric)
{
    EXPECT_GT(fabricPowerMw(appPlan(*apps::makeStepsApp())),
              ice40Hub().staticPowerMw);
}

} // namespace
} // namespace sidewinder::hub
