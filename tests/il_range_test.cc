/**
 * @file
 * Value-range abstract interpreter tests:
 *  - unit facts for every SW3xx diagnostic on handcrafted programs;
 *  - a golden corpus over every .il file in tests/data/ranges/
 *    (regenerate with SW_UPDATE_GOLDENS=1; files whose stem starts
 *    with "q15_" are analyzed in Q15 mode, where SW301 is an error);
 *  - the soundness property the header promises: for every built-in
 *    application and a fleet of fuzzed programs, every value the
 *    double-precision engine emits lies inside the proven interval
 *    (checked with the engine's range tripwire), and any program
 *    with no SW301 finding runs in KernelMode::FixedQ15 with zero
 *    saturation events on inputs inside the declared ranges.
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
#include "apps/predefined.h"
#include "core/sensors.h"
#include "dsp/q15.h"
#include "hub/engine.h"
#include "il/analyze_range.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/plan.h"
#include "support/rng.h"

namespace sidewinder::il {
namespace {

const std::vector<ChannelInfo> kAccChannels = {
    {"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}};

RangeAnalysis
analyzeSource(const std::string &source,
              const std::vector<ChannelInfo> &channels,
              const RangeOptions &options = {})
{
    const Program program = parse(source);
    return analyzeProgramRanges(program, lower(program, channels),
                                options);
}

bool
hasCode(const RangeAnalysis &analysis, const char *code)
{
    for (const auto &d : analysis.diagnostics)
        if (d.code == code)
            return true;
    return false;
}

const Diagnostic *
findCode(const RangeAnalysis &analysis, const char *code)
{
    for (const auto &d : analysis.diagnostics)
        if (d.code == code)
            return &d;
    return nullptr;
}

TEST(Interval, BasicLattice)
{
    EXPECT_TRUE(Interval::empty().isEmpty());
    EXPECT_FALSE(Interval::of(-1.0, 2.0).isEmpty());
    EXPECT_DOUBLE_EQ(Interval::of(-3.0, 2.0).maxAbs(), 3.0);
    EXPECT_DOUBLE_EQ(Interval::of(-3.0, 2.0).width(), 5.0);

    const Interval h =
        Interval::of(0.0, 1.0).hull(Interval::of(4.0, 5.0));
    EXPECT_DOUBLE_EQ(h.lo, 0.0);
    EXPECT_DOUBLE_EQ(h.hi, 5.0);

    EXPECT_TRUE(Interval::of(0.0, 1.0)
                    .intersect(Interval::of(2.0, 3.0))
                    .isEmpty());
    EXPECT_TRUE(Interval::of(0.0, 2.0).contains(1.5));
    EXPECT_FALSE(Interval::empty().contains(0.0));
}

TEST(DefaultRanges, CoverKnownSensorTypes)
{
    const auto ranges = defaultChannelRanges(
        {{"ACC_X", 50.0}, {"AUDIO", 4000.0}, {"BARO", 20.0},
         {"MYSTERY", 10.0}});
    ASSERT_EQ(ranges.size(), 4u);
    EXPECT_DOUBLE_EQ(ranges[0].lo, -40.0);
    EXPECT_DOUBLE_EQ(ranges[0].hi, 40.0);
    EXPECT_DOUBLE_EQ(ranges[1].lo, -1.0);
    EXPECT_DOUBLE_EQ(ranges[1].hi, 1.0);
    EXPECT_DOUBLE_EQ(ranges[2].lo, 300.0);
    EXPECT_DOUBLE_EQ(ranges[2].hi, 1100.0);
    EXPECT_LE(ranges[3].lo, -1e5);
    EXPECT_GE(ranges[3].hi, 1e5);
}

TEST(RangeDiagnostics, DeadWakeIsSw310)
{
    // rms of normalized audio is <= 1; a 2.0 floor never passes.
    const auto analysis = analyzeSource(
        "AUDIO -> window(id=1, params={64, 0, 64});\n"
        "1 -> rms(id=2);\n"
        "2 -> minThreshold(id=3, params={2.0});\n"
        "3 -> OUT;\n",
        core::audioChannels());
    EXPECT_FALSE(analysis.wakeReachable);
    EXPECT_DOUBLE_EQ(analysis.provenWakeRateHz, 0.0);
    EXPECT_TRUE(hasCode(analysis, SW310_DEAD_WAKE));
}

TEST(RangeDiagnostics, AlwaysFiringWakeIsSw311)
{
    // [-40, 40] is inside the admit set of maxThreshold(100): the
    // "condition" is a 50 Hz timer.
    const auto analysis = analyzeSource(
        "ACC_X -> movingAvg(id=1, params={4});\n"
        "1 -> maxThreshold(id=2, params={100.0});\n"
        "2 -> OUT;\n",
        kAccChannels);
    EXPECT_TRUE(analysis.wakeAlwaysFires);
    EXPECT_TRUE(hasCode(analysis, SW311_ALWAYS_WAKE));
}

TEST(RangeDiagnostics, ConsecutiveProvesTighterBound)
{
    const auto analysis = analyzeSource(
        "AUDIO -> window(id=1, params={256, 0, 256});\n"
        "1 -> rms(id=2);\n"
        "2 -> minThreshold(id=3, params={0.2});\n"
        "3 -> consecutive(id=4, params={8});\n"
        "4 -> OUT;\n",
        core::audioChannels());
    // 4000 / 256 = 15.625 Hz syntactic; consecutive(8) divides it.
    EXPECT_NEAR(analysis.provenWakeRateHz, 15.625 / 8.0, 1e-9);
    EXPECT_TRUE(hasCode(analysis, SW312_PROVEN_WAKE_RATE));
}

TEST(RangeDiagnostics, Q15SaturationIsErrorInQ15Mode)
{
    const std::string source =
        "ACC_X -> movingAvg(id=1, params={5});\n"
        "1 -> minThreshold(id=2, params={12.0});\n"
        "2 -> OUT;\n";

    const auto warn = analyzeSource(source, kAccChannels);
    const Diagnostic *sw301 = findCode(warn, SW301_Q15_SATURATION);
    ASSERT_NE(sw301, nullptr);
    EXPECT_EQ(sw301->severity, Severity::Warning);
    EXPECT_FALSE(warn.q15Provable);
    EXPECT_TRUE(hasCode(warn, SW302_Q15_PRESCALE));

    RangeOptions q15;
    q15.q15 = true;
    const auto reject = analyzeSource(source, kAccChannels, q15);
    const Diagnostic *error = findCode(reject, SW301_Q15_SATURATION);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->severity, Severity::Error);

    // The recommended shift covers |40|: 2^-6 * 40 = 0.625 <= 1.
    const ExecutionPlan plan = lower(parse(source), kAccChannels);
    const auto facts = analyzeRanges(plan);
    ASSERT_FALSE(facts.nodes.empty());
    EXPECT_FALSE(facts.nodes[0].q15Safe);
    EXPECT_EQ(facts.nodes[0].recommendedShift, 6);
}

TEST(RangeDiagnostics, DeclaredRangesMakeTheSameProgramProvable)
{
    const std::string source =
        "ACC_X -> movingAvg(id=1, params={5});\n"
        "1 -> minThreshold(id=2, params={0.5});\n"
        "2 -> OUT;\n";
    RangeOptions options;
    options.q15 = true;
    options.channelRanges = {{"ACC_X", -0.9, 0.9}};
    const auto analysis = analyzeSource(source, kAccChannels, options);
    EXPECT_TRUE(analysis.q15Provable);
    EXPECT_FALSE(hasCode(analysis, SW301_Q15_SATURATION));
}

TEST(RangeDiagnostics, DiagnosticsCarryStatementSpans)
{
    const auto analysis = analyzeSource(
        "ACC_X -> movingAvg(id=1, params={4});\n"
        "1 -> maxThreshold(id=2, params={100.0});\n"
        "2 -> OUT;\n",
        kAccChannels);
    const Diagnostic *d = findCode(analysis, SW311_ALWAYS_WAKE);
    ASSERT_NE(d, nullptr);
    EXPECT_GE(d->line, 1);
    EXPECT_GE(d->column, 1);
}

// ---------------------------------------------------------------------
// Golden corpus: renderRanges output for every tests/data/ranges/*.il
// is pinned as <stem>.golden next to it. Stems starting with "q15_"
// are analyzed with RangeOptions::q15 set (SW301 is an error there).
// Regenerate with SW_UPDATE_GOLDENS=1.

std::filesystem::path
rangesDir()
{
    return std::filesystem::path(SW_TEST_DATA_DIR) / "ranges";
}

std::string
rangesTextFor(const std::string &source, bool q15)
{
    try {
        const ExecutionPlan plan =
            lower(parse(source), core::allChannels());
        RangeOptions options;
        options.q15 = q15;
        return renderRanges(plan, analyzeRanges(plan, options));
    } catch (const SidewinderError &error) {
        return std::string("error: ") + error.what() + "\n";
    }
}

TEST(RangeGoldens, CorpusMatchesPinnedRenderings)
{
    const bool update = std::getenv("SW_UPDATE_GOLDENS") != nullptr;

    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(rangesDir()))
        if (entry.path().extension() == ".il")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 6u) << "ranges corpus went missing";

    for (const auto &path : files) {
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        std::ostringstream text;
        text << in.rdbuf();
        const bool q15 =
            path.stem().string().rfind("q15_", 0) == 0;
        const std::string actual = rangesTextFor(text.str(), q15);

        const auto golden_path =
            rangesDir() / (path.stem().string() + ".golden");
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

// ---------------------------------------------------------------------
// Soundness: observed ⊆ proven, checked with the engine's tripwire.

/** Tripwire bounds per share key from a plan's range analysis. */
std::unordered_map<std::string, hub::Engine::RangeBound>
tripwireBounds(const ExecutionPlan &plan, const RangeAnalysis &facts)
{
    std::unordered_map<std::string, hub::Engine::RangeBound> bounds;
    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        hub::Engine::RangeBound b;
        if (plan.streams[i].kind == ValueKind::ComplexFrame) {
            b.hi = facts.nodes[i].magnitudeBound;
            b.lo = -b.hi;
        } else {
            b.lo = facts.nodes[i].value.lo;
            b.hi = facts.nodes[i].value.hi;
        }
        bounds[plan.shareKeys[i]] = b;
    }
    return bounds;
}

/**
 * Drive @p plan on a fresh engine with @p waves of uniform samples
 * inside @p ranges (per engine channel) and return the tripwire
 * violation report (empty string when sound).
 */
std::string
runTripwire(const ExecutionPlan &plan, const RangeAnalysis &facts,
            const std::vector<ChannelInfo> &channels,
            std::size_t waves, Rng &rng)
{
    hub::Engine engine(channels);
    engine.addCondition(1, plan);
    engine.armRangeTripwire(tripwireBounds(plan, facts));

    std::vector<double> sample(channels.size());
    const double dt = 1.0 / channels.front().sampleRateHz;
    for (std::size_t w = 0; w < waves; ++w) {
        for (std::size_t c = 0; c < channels.size(); ++c)
            sample[c] = rng.uniform(facts.channelRanges[c].lo,
                                    facts.channelRanges[c].hi);
        engine.pushSamples(sample, static_cast<double>(w) * dt);
    }
    if (engine.rangeTripwireViolations() == 0)
        return "";
    return engine.rangeTripwireFirstViolation() + " (" +
           std::to_string(engine.rangeTripwireViolations()) +
           " violations)";
}

TEST(RangeSoundness, BuiltinAppsObservedWithinProven)
{
    Rng rng(20260807);
    std::vector<std::pair<std::string, const apps::Application *>>
        units;
    const auto all = apps::allApps();
    for (const auto &app : all)
        units.emplace_back(app->name(), app.get());
    const auto gesture = apps::makeGestureApp();
    const auto floors = apps::makeFloorsApp();
    units.emplace_back(gesture->name(), gesture.get());
    units.emplace_back(floors->name(), floors.get());

    for (const auto &[name, app] : units) {
        const auto channels = app->channels();
        const ExecutionPlan plan =
            lower(app->wakeCondition().compile(), channels);
        const auto facts = analyzeRanges(plan);
        // ~4 seconds of stream per app, at least a few thousand
        // waves so windowed nodes emit many frames.
        const std::size_t waves = std::max<std::size_t>(
            2000, static_cast<std::size_t>(
                      4.0 * channels.front().sampleRateHz));
        const std::string verdict =
            runTripwire(plan, facts, channels, waves, rng);
        EXPECT_EQ(verdict, "") << "app " << name;
    }
}

/**
 * Random valid program over the accelerometer channels: scalar
 * chains (averages, thresholds), windowed reducer branches, an
 * optional aggregation, a terminal threshold, and an optional
 * consecutive debounce.
 */
Program
randomProgram(Rng &rng, double magnitude)
{
    Program program;
    NodeId next_id = 1;
    std::vector<NodeId> tails;

    const long branch_count = rng.uniformInt(1, 3);
    for (long b = 0; b < branch_count; ++b) {
        const char *names[] = {"ACC_X", "ACC_Y", "ACC_Z"};
        SourceRef current =
            SourceRef::makeChannel(names[rng.uniformInt(0, 2)]);
        const long depth = rng.uniformInt(1, 3);
        for (long d = 0; d < depth; ++d) {
            Statement stmt;
            stmt.inputs = {current};
            stmt.id = next_id++;
            switch (rng.uniformInt(0, 3)) {
              case 0:
                stmt.algorithm = "movingAvg";
                stmt.params = {
                    static_cast<double>(rng.uniformInt(2, 12))};
                break;
              case 1:
                stmt.algorithm = "expMovingAvg";
                stmt.params = {rng.uniform(0.05, 1.0)};
                break;
              case 2: {
                // window -> reducer collapses back to a scalar.
                const long sizes[] = {4, 8, 16};
                const double n = static_cast<double>(
                    sizes[rng.uniformInt(0, 2)]);
                stmt.algorithm = "window";
                stmt.params = {
                    n, static_cast<double>(rng.uniformInt(0, 1)), n};
                const NodeId window_id = stmt.id;
                program.statements.push_back(std::move(stmt));

                Statement reduce;
                reduce.inputs = {SourceRef::makeNode(window_id)};
                reduce.id = next_id++;
                const char *reducers[] = {"mean", "stddev", "rms",
                                          "min",  "max",    "range",
                                          "variance"};
                reduce.algorithm = reducers[rng.uniformInt(0, 6)];
                current = SourceRef::makeNode(reduce.id);
                program.statements.push_back(std::move(reduce));
                continue;
              }
              default:
                stmt.algorithm = "maxThreshold";
                stmt.params = {rng.uniform(0.0, magnitude)};
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
    thr.params = {rng.uniform(0.0, magnitude / 2.0)};
    program.statements.push_back(thr);
    NodeId last = thr.id;

    if (rng.uniformInt(0, 2) == 0) {
        Statement debounce;
        debounce.inputs = {SourceRef::makeNode(last)};
        debounce.algorithm = "consecutive";
        debounce.id = next_id++;
        debounce.params = {
            static_cast<double>(rng.uniformInt(2, 5))};
        last = debounce.id;
        program.statements.push_back(std::move(debounce));
    }

    Statement out;
    out.inputs = {SourceRef::makeNode(last)};
    out.isOut = true;
    program.statements.push_back(out);
    return program;
}

TEST(RangeSoundness, FuzzedProgramsObservedWithinProven)
{
    Rng rng(424242);
    const double magnitudes[] = {0.5, 0.9, 4.0, 40.0};
    int q15_checked = 0;

    for (int i = 0; i < 32; ++i) {
        const double magnitude =
            magnitudes[static_cast<std::size_t>(i) % 4];
        const Program program = randomProgram(rng, magnitude);

        RangeOptions options;
        for (const auto &ch : kAccChannels)
            options.channelRanges.push_back(
                {ch.name, -magnitude, magnitude});

        const ExecutionPlan plan = lower(program, kAccChannels);
        const auto facts = analyzeRanges(plan, options);
        const std::string verdict =
            runTripwire(plan, facts, kAccChannels, 1500, rng);
        EXPECT_EQ(verdict, "") << "fuzz #" << i << " (magnitude "
                               << magnitude << ")";

        // A program the analyzer proves Q15-safe must execute in
        // fixed point with zero saturation events.
        if (facts.q15Provable) {
            ++q15_checked;
            hub::Engine q15(kAccChannels, true, 200,
                            hub::KernelMode::FixedQ15);
            q15.addCondition(1, plan);
            hub::Engine::resetQ15SaturationEvents();
            std::vector<double> sample(kAccChannels.size());
            for (int w = 0; w < 1500; ++w) {
                for (std::size_t c = 0; c < sample.size(); ++c)
                    sample[c] = rng.uniform(-magnitude, magnitude);
                q15.pushSamples(sample, w * 0.02);
            }
            EXPECT_EQ(hub::Engine::q15SaturationEvents(), 0u)
                << "fuzz #" << i << " proven safe but saturated";
        }
    }
    // The small-magnitude draws must actually exercise the Q15 leg.
    EXPECT_GE(q15_checked, 4);
}

TEST(RangeSoundness, UnprovableProgramActuallySaturates)
{
#if !SIDEWINDER_Q15_COUNTERS_ENABLED
    GTEST_SKIP() << "saturation counters compiled out (Release)";
#else
    // ±40 m/s² accelerometer data through a movingAvg quantizes far
    // outside the Q15 grid: SW301 fires, and the empirical counter
    // agrees (this is the other half of the soundness argument —
    // the warning is not a false alarm on real full-range data).
    const std::string source =
        "ACC_X -> movingAvg(id=1, params={5});\n"
        "1 -> minThreshold(id=2, params={12.0});\n"
        "2 -> OUT;\n";
    const ExecutionPlan plan = lower(parse(source), kAccChannels);
    const auto facts = analyzeRanges(plan);
    EXPECT_FALSE(facts.q15Provable);

    hub::Engine q15(kAccChannels, true, 200,
                    hub::KernelMode::FixedQ15);
    q15.addCondition(1, plan);
    hub::Engine::resetQ15SaturationEvents();
    Rng rng(7);
    std::vector<double> sample(kAccChannels.size());
    for (int w = 0; w < 500; ++w) {
        for (std::size_t c = 0; c < sample.size(); ++c)
            sample[c] = rng.uniform(-40.0, 40.0);
        q15.pushSamples(sample, w * 0.02);
    }
    EXPECT_GT(hub::Engine::q15SaturationEvents(), 0u);
#endif
}

TEST(RangeSoundness, TripwireCatchesAnUnsoundBound)
{
    // Arm a deliberately false bound: the tripwire must report it
    // (guards against the tripwire silently passing everything).
    const std::string source =
        "ACC_X -> movingAvg(id=1, params={2});\n"
        "1 -> maxThreshold(id=2, params={100.0});\n"
        "2 -> OUT;\n";
    const ExecutionPlan plan = lower(parse(source), kAccChannels);

    std::unordered_map<std::string, hub::Engine::RangeBound> bogus;
    for (std::size_t i = 0; i < plan.nodeCount(); ++i)
        bogus[plan.shareKeys[i]] = {-0.001, 0.001};

    hub::Engine engine(kAccChannels);
    engine.addCondition(1, plan);
    engine.armRangeTripwire(bogus);
    for (int w = 0; w < 50; ++w)
        engine.pushSamples({30.0, 0.0, 0.0}, w * 0.02);
    EXPECT_GT(engine.rangeTripwireViolations(), 0u);
    EXPECT_FALSE(engine.rangeTripwireFirstViolation().empty());

    engine.disarmRangeTripwire();
    const std::size_t before = engine.rangeTripwireViolations();
    for (int w = 50; w < 60; ++w)
        engine.pushSamples({30.0, 0.0, 0.0}, w * 0.02);
    EXPECT_EQ(engine.rangeTripwireViolations(), before);
}

} // namespace
} // namespace sidewinder::il
