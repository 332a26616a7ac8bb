/**
 * @file
 * Tests for the IL common-subexpression optimizer: duplicate chains
 * collapse, references are rewritten, semantics are unchanged, and
 * the sensor manager ships the optimized form.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "il/optimize.h"
#include "il/parser.h"
#include "il/validate.h"
#include "il/writer.h"
#include "support/rng.h"

namespace sidewinder::il {
namespace {

TEST(Optimize, IdentityOnProgramsWithoutDuplicates)
{
    const Program p =
        parse("ACC_X -> movingAvg(id=1, params={10});\n"
              "1 -> minThreshold(id=2, params={3});\n"
              "2 -> OUT;\n");
    EXPECT_EQ(optimize(p), p);
    EXPECT_EQ(redundantStatementCount(p), 0u);
}

TEST(Optimize, CollapsesDuplicateBranches)
{
    const Program p =
        parse("ACC_X -> movingAvg(id=1, params={10});\n"
              "ACC_X -> movingAvg(id=2, params={10});\n"
              "1,2 -> vectorMagnitude(id=3);\n"
              "3 -> minThreshold(id=4, params={5});\n"
              "4 -> OUT;\n");
    const Program o = optimize(p);
    ASSERT_EQ(o.statements.size(), 4u);
    EXPECT_EQ(redundantStatementCount(p), 1u);
    // The magnitude now reads node 1 twice.
    EXPECT_EQ(o.statements[1].inputs[0].node, 1);
    EXPECT_EQ(o.statements[1].inputs[1].node, 1);
}

TEST(Optimize, DistinguishesDifferentParams)
{
    const Program p =
        parse("ACC_X -> movingAvg(id=1, params={10});\n"
              "ACC_X -> movingAvg(id=2, params={20});\n"
              "1,2 -> vectorMagnitude(id=3);\n"
              "3 -> OUT;\n");
    EXPECT_EQ(redundantStatementCount(p), 0u);
}

TEST(Optimize, CollapsesTransitiveChains)
{
    // Two identical two-stage chains: both stages deduplicate.
    const Program p =
        parse("AUDIO -> window(id=1, params={64});\n"
              "1 -> rms(id=2);\n"
              "AUDIO -> window(id=3, params={64});\n"
              "3 -> rms(id=4);\n"
              "2,4 -> or(id=5);\n"
              "5 -> OUT;\n");
    const Program o = optimize(p);
    EXPECT_EQ(redundantStatementCount(p), 2u);
    ASSERT_EQ(o.statements.size(), 4u);
    EXPECT_NO_THROW(validate(o, {{"AUDIO", 4000.0}}));
}

TEST(Optimize, SirenConditionShedsItsSharedPrefix)
{
    const auto app = apps::makeSirenApp();
    const Program p = app->wakeCondition().compile();
    const Program o = optimize(p);
    EXPECT_GT(redundantStatementCount(p), 3u);
    EXPECT_LT(write(o).size(), write(p).size());
    EXPECT_NO_THROW(validate(o, app->channels()));
}

TEST(Optimize, SemanticsPreservedOnTheEngine)
{
    const auto app = apps::makeSirenApp();
    const Program original = app->wakeCondition().compile();
    const Program optimized = optimize(original);

    hub::Engine a(app->channels());
    hub::Engine b(app->channels());
    a.addCondition(1, test::planFor(a, original));
    b.addCondition(1, test::planFor(b, optimized));

    sidewinder::Rng rng(3);
    std::vector<double> wakes_a, wakes_b;
    for (int i = 0; i < 4000; ++i) {
        const double v = rng.gaussian(0.0, 0.2);
        const double t = i * 0.00025;
        a.pushSamples({v}, t);
        b.pushSamples({v}, t);
        for (const auto &e : a.drainWakeEvents())
            wakes_a.push_back(e.timestamp);
        for (const auto &e : b.drainWakeEvents())
            wakes_b.push_back(e.timestamp);
    }
    EXPECT_EQ(wakes_a, wakes_b);

    // The engine already shares within a program, so the node count
    // matches; the saving is in IL size and hub install work.
    EXPECT_EQ(a.nodeCount(), b.nodeCount());
}

TEST(Optimize, ManagerShipsOptimizedIl)
{
    // The shipped IL of the siren condition contains exactly one
    // window statement (three in the unoptimized compile).
    const auto app = apps::makeSirenApp();
    const Program shipped =
        optimize(app->wakeCondition().compile());
    int windows = 0;
    for (const auto &stmt : shipped.statements)
        windows += stmt.algorithm == "window" ? 1 : 0;
    EXPECT_EQ(windows, 1);
}

} // namespace
} // namespace sidewinder::il
