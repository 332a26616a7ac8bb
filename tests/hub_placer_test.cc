/**
 * @file
 * Tests for the negotiated-congestion placer (hub/placer.h):
 * single-condition marginals against the capability models, the
 * fabric sizing rule, a condition set as one tenant, the
 * fabric-rescue scenario greedy over-provisions, determinism across
 * repeated runs and concurrent callers, ledger soundness on fuzzed
 * workloads, admit-superset-of-greedy on the shipped-app corpus, and
 * a renderPlacementReport golden corpus over the tests/data IL files
 * (regenerate with SW_UPDATE_GOLDENS=1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "core/sensors.h"
#include "hub/fpga.h"
#include "hub/mcu.h"
#include "hub/placer.h"
#include "il/analyze.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/plan.h"
#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::hub {
namespace {

namespace apps = sidewinder::apps;
namespace core = sidewinder::core;
namespace il = sidewinder::il;

/** Lowered wake condition of one shipped app. */
il::ExecutionPlan
appPlan(const apps::Application &app)
{
    return il::lower(app.wakeCondition().compile(), app.channels());
}

/** Every shipped app's lowered wake condition (incl. gesture/floors). */
std::vector<std::pair<std::string, il::ExecutionPlan>>
shippedPlans()
{
    std::vector<std::pair<std::string, il::ExecutionPlan>> plans;
    for (const auto &app : apps::allApps())
        plans.emplace_back(app->name(), appPlan(*app));
    const auto gesture = apps::makeGestureApp();
    const auto floors = apps::makeFloorsApp();
    plans.emplace_back(gesture->name(), appPlan(*gesture));
    plans.emplace_back(floors->name(), appPlan(*floors));
    return plans;
}

void
expectSameResult(const PlacementResult &a, const PlacementResult &b)
{
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    for (std::size_t c = 0; c < a.decisions.size(); ++c) {
        EXPECT_EQ(a.decisions[c].executorIndex,
                  b.decisions[c].executorIndex)
            << "condition " << c;
        EXPECT_EQ(a.decisions[c].executorName,
                  b.decisions[c].executorName);
        EXPECT_EQ(a.decisions[c].marginalPowerMw,
                  b.decisions[c].marginalPowerMw);
        EXPECT_EQ(a.decisions[c].wireTarget, b.decisions[c].wireTarget);
    }
    EXPECT_EQ(a.totalPowerMw, b.totalPowerMw);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.ripUps, b.ripUps);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.unplaced, b.unplaced);
}

/** Ledger within capacity on every modeled axis? */
bool
ledgerSound(const ExecutorModel &e, const ExecutorLedger &led)
{
    if (e.cyclesPerSecond > 0.0 &&
        led.cyclesPerSecond > e.cyclesPerSecond)
        return false;
    if (e.ramBytes != 0 && led.ramBytes > e.ramBytes)
        return false;
    if (e.wakeBudgetHz > 0.0 && led.wakeRateHz > e.wakeBudgetHz)
        return false;
    if (e.logicCells != 0 && led.logicCells > e.logicCells)
        return false;
    return true;
}

// ---------------------------------------------------------------------
// Single-condition marginals and the rescue scenario.

TEST(Placer, LightConditionOnMcuLadderHomesOnMsp430)
{
    const il::Program p =
        il::parse("ACC_X -> movingAvg(id=1, params={8});\n"
                  "1 -> minThreshold(id=2, params={1.5});\n"
                  "2 -> OUT;\n");
    const il::ExecutionPlan plan =
        il::lower(p, core::accelerometerChannels());

    // On the MCU ladder the cheapest sufficient part wins, at exactly
    // its active power.
    const PlacementDecision home = placeCondition(
        plan, {mcuExecutor(msp430()), mcuExecutor(lm4f120())});
    ASSERT_TRUE(home.placed());
    EXPECT_EQ(home.executorName, msp430().name);
    EXPECT_EQ(home.kind, ExecutorKind::Mcu);
    EXPECT_EQ(home.marginalPowerMw, msp430().activePowerMw);
    EXPECT_EQ(home.wireTarget, "hub:" + msp430().name);

    // Across the whole platform the 1.2 mW fabric undercuts even the
    // MSP430 when the condition has fabric blocks.
    const PlacementDecision platform =
        placeCondition(plan, platformExecutors());
    ASSERT_TRUE(platform.placed());
    EXPECT_EQ(platform.kind, ExecutorKind::Fpga);
    EXPECT_LT(platform.marginalPowerMw, msp430().activePowerMw);
}

TEST(Placer, FpgaOnlySpaceChargesTheFabricRow)
{
    const auto siren = apps::makeSirenApp();
    const il::ExecutionPlan plan = appPlan(*siren);
    const FpgaModel fpga = ice40Hub();

    // The fabric sizing rule, restated: one pre-compiled block per
    // plan node sized by the larger of its input and output frames,
    // and each node's cycle-unit demand at the fabric's nJ per unit.
    std::size_t cells = 0;
    double dynamic_mw = 0.0;
    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        const std::size_t input_frame =
            plan.inputCounts[i] > 0 ? plan.inputStream(i, 0).frameSize
                                    : 0;
        cells += fpgaCellCost(
            plan.algorithms[i],
            std::max(input_frame, plan.streams[i].frameSize));
        dynamic_mw += plan.cyclesPerInvoke[i] * plan.invokeRateHz[i] *
                      fpga.nanojoulesPerCycleUnit * 1e-6;
    }

    Placer placer({fpgaExecutor(fpga)});
    placer.addCondition(plan);
    const PlacementDemand &row = placer.demandRow(0).front();
    EXPECT_TRUE(row.feasible);
    EXPECT_EQ(row.logicCells, cells);
    EXPECT_EQ(row.dynamicPowerMw, dynamic_mw);
    EXPECT_LE(cells, fpga.logicCells);

    const PlacementDecision home = placer.place().decisions.front();
    ASSERT_TRUE(home.placed());
    EXPECT_EQ(home.executorName, fpga.name);
    // Sole tenant: marginal = static + dynamic.
    EXPECT_EQ(home.marginalPowerMw, fpga.staticPowerMw + dynamic_mw);
}

TEST(Placer, ConditionSetIsOneTenant)
{
    // A hub's condition set is one demand row: the MCU axes read the
    // load the caller charges, and the fabric's cells and power add
    // up over the plans.
    const auto siren = apps::makeSirenApp();
    const auto music = apps::makeMusicJournalApp();
    const std::vector<il::ExecutionPlan> plans = {appPlan(*siren),
                                                  appPlan(*music)};
    il::ProgramCost load;
    load.cyclesPerSecond = 123.0;
    load.ramBytes = 456;
    load.wakeRateBoundHz = 0.5;

    Placer set(platformExecutors());
    set.addConditions(plans, load);
    Placer one(platformExecutors());
    one.addCondition(plans[0]);
    one.addCondition(plans[1]);
    ASSERT_EQ(set.conditionCount(), 1u);
    for (std::size_t e = 0; e < platformExecutors().size(); ++e) {
        const PlacementDemand &d = set.demandRow(0)[e];
        switch (platformExecutors()[e].kind) {
          case ExecutorKind::Mcu:
            EXPECT_EQ(d.cyclesPerSecond, load.cyclesPerSecond);
            EXPECT_EQ(d.ramBytes, load.ramBytes);
            EXPECT_EQ(d.wakeRateHz, load.wakeRateBoundHz);
            break;
          case ExecutorKind::Fpga:
            EXPECT_EQ(d.logicCells, one.demandRow(0)[e].logicCells +
                                        one.demandRow(1)[e].logicCells);
            EXPECT_DOUBLE_EQ(d.dynamicPowerMw,
                             one.demandRow(0)[e].dynamicPowerMw +
                                 one.demandRow(1)[e].dynamicPowerMw);
            break;
          case ExecutorKind::ApFallback:
            EXPECT_TRUE(d.feasible);
            break;
        }
    }
}

/**
 * The acceptance scenario: an audio FFT pipeline outgrows the MSP430,
 * so the greedy ladder over-provisions it onto the LM4F120 (49.4 mW);
 * the negotiated placer sees the whole space and homes it on the
 * fabric for an order of magnitude less power.
 */
TEST(Placer, RescuesAudioFftFromLm4f120OntoFabric)
{
    const auto siren = apps::makeSirenApp();
    const il::ExecutionPlan plan = appPlan(*siren);

    Placer placer(platformExecutors());
    placer.addCondition(plan);
    const PlacementDecision greedy =
        placer.placeGreedy().decisions.front();
    const PlacementDecision negotiated =
        placer.place().decisions.front();

    ASSERT_TRUE(greedy.placed());
    ASSERT_TRUE(negotiated.placed());
    EXPECT_EQ(greedy.executorName, lm4f120().name);
    EXPECT_EQ(negotiated.kind, ExecutorKind::Fpga);
    EXPECT_LT(negotiated.marginalPowerMw,
              0.25 * greedy.marginalPowerMw);
}

TEST(Placer, ApFallbackMakesPlacementTotal)
{
    // A condition past the MSP430's budgets is rejected on an
    // MSP430-only space but always homed somewhere on the full
    // platform (the AP fallback is unbounded).
    const auto siren = apps::makeSirenApp();
    const il::ExecutionPlan plan = appPlan(*siren);

    std::vector<ExecutorModel> mcus_only = {mcuExecutor(msp430())};
    const PlacementDecision rejected = placeCondition(plan, mcus_only);
    EXPECT_FALSE(rejected.placed());

    const PlacementDecision home =
        placeCondition(plan, platformExecutors());
    ASSERT_TRUE(home.placed());
    EXPECT_EQ(home.wireTarget,
              home.kind == ExecutorKind::ApFallback
                  ? "ap:local"
                  : "hub:" + home.executorName);

    // And the AP alone takes anything, at the duty-cycling price.
    const PlacementDecision ap_home =
        placeCondition(plan, {apFallbackExecutor()});
    ASSERT_TRUE(ap_home.placed());
    EXPECT_EQ(ap_home.kind, ExecutorKind::ApFallback);
    EXPECT_EQ(ap_home.wireTarget, "ap:local");
    EXPECT_DOUBLE_EQ(ap_home.marginalPowerMw,
                     apFallbackExecutor().activePowerMw);
}

// ---------------------------------------------------------------------
// Determinism.

TEST(Placer, RepeatedRunsAreBitIdentical)
{
    Placer placer(platformExecutors());
    for (const auto &[name, plan] : shippedPlans())
        placer.addCondition(plan);

    const PlacementResult first = placer.place();
    for (int i = 0; i < 5; ++i)
        expectSameResult(first, placer.place());
}

TEST(Placer, ConcurrentCallersAgreeWithSerial)
{
    // place() is const and pure; hammer one placer from many threads
    // and require every result bit-identical to the serial answer.
    Placer placer(platformExecutors());
    for (const auto &[name, plan] : shippedPlans())
        placer.addCondition(plan);
    const PlacementResult serial = placer.place();

    for (std::size_t threads : {2u, 8u}) {
        std::vector<PlacementResult> results(threads);
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back(
                [&placer, &results, t] { results[t] = placer.place(); });
        for (auto &w : workers)
            w.join();
        for (const auto &r : results)
            expectSameResult(serial, r);
    }
}

// ---------------------------------------------------------------------
// Ledger soundness under contention (fuzzed).

/** Random shallow accel pipeline as IL text. */
std::string
randomIl(Rng &rng)
{
    std::ostringstream il;
    const char *chans[] = {"ACC_X", "ACC_Y", "ACC_Z"};
    int id = 1;
    std::string src = chans[rng.uniformInt(0, 2)];
    const long depth = rng.uniformInt(1, 3);
    for (long d = 0; d < depth; ++d) {
        switch (rng.uniformInt(0, 2)) {
          case 0:
            il << src << " -> movingAvg(id=" << id << ", params={"
               << rng.uniformInt(2, 16) << "});\n";
            break;
          case 1:
            il << src << " -> expMovingAvg(id=" << id << ", params={"
               << rng.uniform(0.05, 1.0) << "});\n";
            break;
          default: {
            const long n = 1L << rng.uniformInt(2, 4);
            il << src << " -> window(id=" << id << ", params={" << n
               << ", 1, " << n << "});\n";
            const int window_id = id++;
            il << window_id << " -> rms(id=" << id << ");\n";
            break;
          }
        }
        src = std::to_string(id++);
    }
    il << src << " -> minThreshold(id=" << id << ", params={"
       << rng.uniform(0.5, 4.0) << "});\n";
    il << id << " -> OUT;\n";
    return il.str();
}

TEST(Placer, FuzzedWorkloadsEndWithSoundLedgers)
{
    Rng rng(20260807);
    const auto channels = core::accelerometerChannels();

    for (int round = 0; round < 40; ++round) {
        const long conditions = rng.uniformInt(2, 12);
        std::vector<il::ExecutionPlan> plans;
        double total_cycles = 0.0;
        std::size_t total_ram = 0;
        for (long c = 0; c < conditions; ++c) {
            plans.push_back(
                il::lower(il::parse(randomIl(rng)), channels));
            total_cycles += plans.back().cost().cyclesPerSecond;
            total_ram += plans.back().cost().ramBytes;
        }

        // Two mini-MCUs sized so the workload does not fit in one:
        // negotiation has to spread the tenants.
        ExecutorModel mini;
        mini.kind = ExecutorKind::Mcu;
        mini.name = "mini";
        mini.activePowerMw = rng.uniform(1.0, 10.0);
        mini.cyclesPerSecond =
            std::max(1.0, total_cycles * rng.uniform(0.55, 0.9));
        mini.ramBytes = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   static_cast<double>(total_ram) *
                   rng.uniform(0.55, 0.9)));
        ExecutorModel mini2 = mini;
        mini2.name = "mini2";
        mini2.activePowerMw = rng.uniform(1.0, 10.0);
        std::vector<ExecutorModel> executors = {mini, mini2};
        if (rng.chance(0.5))
            executors.push_back(apFallbackExecutor());

        Placer placer(executors);
        for (const auto &plan : plans)
            placer.addCondition(plan);
        const PlacementResult result = placer.place();

        for (std::size_t e = 0; e < executors.size(); ++e)
            EXPECT_TRUE(ledgerSound(executors[e], result.ledgers[e]))
                << "round " << round << " executor " << e;
        std::size_t placed = 0;
        for (const auto &d : result.decisions)
            placed += d.placed() ? 1 : 0;
        EXPECT_EQ(placed + result.unplaced, plans.size());
        if (executors.size() == 3) {
            // The AP fallback takes everything the minis cannot.
            EXPECT_EQ(result.unplaced, 0u) << "round " << round;
        }
    }
}

// ---------------------------------------------------------------------
// Against the greedy baseline.

TEST(Placer, AdmitsEverythingGreedyAdmitsOnShippedCorpus)
{
    // The whole shipped-app corpus on the hub-only space (no AP):
    // every condition the frozen ladder admits, the negotiated placer
    // admits too — and never at higher total power.
    std::vector<ExecutorModel> hubs = {mcuExecutor(msp430()),
                                       mcuExecutor(lm4f120()),
                                       fpgaExecutor(ice40Hub())};
    Placer placer(hubs);
    for (const auto &[name, plan] : shippedPlans())
        placer.addCondition(plan);

    const PlacementResult greedy = placer.placeGreedy();
    const PlacementResult negotiated = placer.place();
    for (std::size_t c = 0; c < greedy.decisions.size(); ++c)
        if (greedy.decisions[c].placed()) {
            EXPECT_TRUE(negotiated.decisions[c].placed())
                << "condition " << c;
        }
    EXPECT_LE(negotiated.unplaced, greedy.unplaced);
    if (greedy.unplaced == 0) {
        EXPECT_LE(negotiated.totalPowerMw, greedy.totalPowerMw);
    }
}

TEST(Placer, RemoveAtBacksOutExactlyOneCondition)
{
    const auto plans = shippedPlans();
    Placer placer(platformExecutors());
    for (const auto &[name, plan] : plans)
        placer.addCondition(plan);
    placer.removeAt(1);
    ASSERT_EQ(placer.conditionCount(), plans.size() - 1);

    Placer reference(platformExecutors());
    for (std::size_t i = 0; i < plans.size(); ++i)
        if (i != 1)
            reference.addCondition(plans[i].second);
    // Slot indices shifted, so compare via a fresh placement of the
    // same condition multiset.
    const PlacementResult a = placer.place();
    const PlacementResult b = reference.place();
    EXPECT_EQ(a.totalPowerMw, b.totalPowerMw);
    EXPECT_EQ(a.unplaced, b.unplaced);
}

// ---------------------------------------------------------------------
// Golden corpus: renderPlacementReport for every tests/data/*.il file
// is pinned under tests/data/placements/<stem>.place (the exact text
// `swlint --place` prints per unit). Error files pin the error text.
// Regenerate with SW_UPDATE_GOLDENS=1.

std::filesystem::path
dataDir()
{
    return std::filesystem::path(SW_TEST_DATA_DIR);
}

std::string
placeTextFor(const std::string &source)
{
    try {
        return renderPlacementReport(
            il::lower(il::parse(source), core::allChannels()),
            platformExecutors());
    } catch (const SidewinderError &error) {
        return std::string("error: ") + error.what() + "\n";
    }
}

TEST(PlacementGoldens, CorpusMatchesPinnedReports)
{
    const bool update = std::getenv("SW_UPDATE_GOLDENS") != nullptr;
    const auto placements_dir = dataDir() / "placements";
    if (update)
        std::filesystem::create_directories(placements_dir);

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
        const std::string actual = placeTextFor(text.str());

        const auto golden_path =
            placements_dir / (path.stem().string() + ".place");
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
} // namespace sidewinder::hub
