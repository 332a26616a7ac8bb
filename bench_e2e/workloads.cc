#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "apps/apps.h"
#include "dsp/fft_plan.h"
#include "hub/placer.h"
#include "rebuild.h"
#include "sim/concurrent.h"
#include "sim/faults.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "support/thread_pool.h"
#include "trace/audio_gen.h"
#include "trace/robot_gen.h"
#include "tracer.h"

namespace e2e {

namespace sw = sidewinder;
using sw::sim::Strategy;

namespace {

/**
 * Every workload times its passes on a pool of width 1: the shared
 * 4-vCPU VM the bounds were set on delivered anywhere from 1.0x to
 * 2.0x at two threads from one run to the next, which spread fleet
 * throughput by 18% between runs at width 2. The fleet's determinism
 * replay runs on a pool as wide as the host's cores (at most
 * maxCheckWidth).
 */
constexpr std::size_t poolWidth = 1;
constexpr std::size_t maxCheckWidth = 4;
/** Every churnStride-th device has its condition removed and
 *  reinstalled before each fleet pass. */
constexpr std::size_t churnStride = 40;
/** Fleet passes whose digests are pinned and replayed at width 1. */
constexpr std::size_t checkedFleetPasses = 4;
/** Set-up repeats: at least minSetups, more while under setupBudget
 *  seconds, at most maxSetups; setup_s is their median. */
constexpr std::size_t minSetups = 3;
constexpr std::size_t maxSetups = 50;
constexpr double setupBudget = 1.0;
/** Failure notes kept per run. */
constexpr std::size_t maxNotes = 20;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec endToEndMetrics[] = {
    {"samples_per_s", "samples/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"recall", "fraction"},
};

const MetricSpec perLayerMetrics[] = {
    {"trace.generate_s", "s"},
    {"core.compile_us", "us"},
    {"il.write_us", "us"},
    {"il.parse_us", "us"},
    {"il.analyze_us", "us"},
    {"il.ranges_us", "us"},
    {"il.lower_us", "us"},
    {"hub.place_us", "us"},
    {"hub.install_us", "us"},
    {"hub.ingest_ns_per_sample", "ns"},
    {"hub.ingest_block_ns_per_sample", "ns"},
    {"hub.ingest_share", "fraction"},
    {"hub.wakes", "count"},
    {"hub.useful_wake_ratio", "fraction"},
    {"hub.plan_cache.misses", "count"},
    {"hub.plan_cache.hit_rate", "fraction"},
    {"hub.ram_bytes_per_device", "bytes"},
    {"hub.reconfig_committed", "count"},
    {"hub.reconfig_rolled_back", "count"},
    {"dsp.fft_transforms", "count"},
    {"dsp.fft_plans_built", "count"},
    {"apps.classify_ns_per_sample", "ns"},
    {"apps.classified_samples", "count"},
    {"metrics.match_us", "us"},
    {"sim.cell_self_s", "s"},
    {"sim.fleet_build_s", "s"},
    {"sim.fleet_run_s", "s"},
    {"sim.power_mw", "mW"},
    {"transport.retransmits", "count"},
    {"transport.frames_lost", "count"},
    {"transport.decoder_dropped_bytes", "bytes"},
    {"transport.hub_down_s", "s"},
    {"transport.fallback_energy_mj", "mJ"},
    {"transport.wake_delivery_ratio", "fraction"},
    {"bench.trace_overhead", "fraction"},
    {"host.parallelism", "x"},
    {"host.pool_width", "count"},
    {"host.cores", "count"},
};

using Values = std::map<std::string, double>;

std::string
format(const char *fmt, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : std::accumulate(values.begin(), values.end(),
                                            0.0) /
                                static_cast<double>(values.size());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
fftTransforms()
{
    const auto c = sw::dsp::fftCounters();
    return c.plannedTransforms + c.plannedRealTransforms +
           c.naiveTransforms;
}

/** Wall time of @p threads concurrent copies of a fixed integer spin. */
double
spinSeconds(std::size_t threads)
{
    static std::atomic<std::uint64_t> sink{0};
    const auto begin = Clock::now();
    {
        std::vector<std::jthread> workers;
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back([] {
                std::uint64_t x = 1;
                for (int i = 0; i < 20'000'000; ++i)
                    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                sink.fetch_add(x, std::memory_order_relaxed);
            });
    }
    return secondsSince(begin);
}

std::size_t
hostCores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Record the parallelism the host delivers across its cores, next to
 *  the core count and the pool width: cores x (one-thread spin time) /
 *  (cores-thread spin time), each the best of three. */
void
recordHost(Values &m, Outcome &out)
{
    const std::size_t cores = hostCores();
    double one = spinSeconds(1), many = spinSeconds(cores);
    for (int i = 0; i < 2; ++i) {
        one = std::min(one, spinSeconds(1));
        many = std::min(many, spinSeconds(cores));
    }
    const double parallelism = static_cast<double>(cores) * one / many;
    m["host.parallelism"] = parallelism;
    m["host.pool_width"] = static_cast<double>(poolWidth);
    m["host.cores"] = static_cast<double>(cores);
    out.notes.push_back(
        format("host: cores=%zu pool_width=%zu delivered_parallelism=%.2f",
               cores, poolWidth, parallelism));
}

void
fail(Outcome &out, const std::string &why)
{
    ++out.failed;
    out.correct = false;
    if (out.notes.size() < maxNotes)
        out.notes.push_back(why);
}

void
checkPinned(const RunConfig &rc, const std::string &label,
            const std::string &pinned, Outcome &out)
{
    if (rc.expected.empty())
        return;
    const auto it = rc.expected.find(label);
    if (it == rc.expected.end())
        fail(out, label + ": no pinned value");
    else if (it->second != pinned)
        fail(out, label + ": '" + pinned + "' != pinned '" + it->second +
                      "'");
}

/**
 * Record samples_per_s, measured from each operation's fastest
 * repetition in the run (see README.md: other processes sharing the
 * host only ever slow work down, in phases lasting seconds), beside
 * the median rate of whole passes. The peak resident set is read here
 * too, before the checks that follow the timed passes build more
 * state.
 */
void
recordThroughput(double best, const std::vector<double> &passRates,
                 Values &m, Outcome &out)
{
    m["samples_per_s"] = best;
    m["peak_rss_mb"] = peakRssMb();
    out.notes.push_back(format("passes=%zu median_pass_samples_per_s=%.6g "
                               "samples_per_s=%.6g",
                               passRates.size(), median(passRates), best));
}

/**
 * Recall over Sidewinder cells, pooled: true positives over all the
 * cells' ground-truth events. One missed rare event (a trace holding a
 * single phrase) moves it by its share of the events, not by a whole
 * cell's recall.
 */
double
pooledRecall(const std::vector<sw::sim::SimResult> &cells)
{
    std::size_t found = 0, events = 0;
    for (const auto &cell : cells) {
        found += cell.detection.truePositives;
        events += cell.detection.truePositives +
                  cell.detection.falseNegatives;
    }
    return events ? static_cast<double>(found) /
                        static_cast<double>(events)
                  : 1.0;
}

/** Emit the metrics of the run's mode in BENCHMARK.json order; a
 *  layer the workload does not run reports 0. */
void
emitMetrics(const RunConfig &rc, Values &m, Outcome &out)
{
    auto emit = [&](const auto &specs) {
        for (const MetricSpec &spec : specs)
            out.metrics.push_back({spec.name, m[spec.name], spec.unit});
    };
    if (rc.trace)
        emit(perLayerMetrics);
    else
        emit(endToEndMetrics);
}

/** Repeat @p setup (which returns its trace-generation seconds) and
 *  record the median set-up and generation times. */
template <typename Setup>
void
repeatSetup(Setup &&setup, Values &m)
{
    std::vector<double> setups, generates;
    double total = 0.0;
    while (setups.size() < minSetups ||
           (total < setupBudget && setups.size() < maxSetups)) {
        const auto begin = Clock::now();
        generates.push_back(setup());
        setups.push_back(secondsSince(begin));
        total += setups.back();
    }
    m["setup_s"] = median(setups);
    m["trace.generate_s"] = median(generates);
}

std::string
pinnedOf(const sw::sim::SimResult &r)
{
    return format("%.1f %.6f %zu", r.averagePowerMw, r.recall,
                  r.hubTriggerCount);
}

std::string
exactOf(const sw::sim::SimResult &r)
{
    const auto &f = r.faults;
    return format("%a %a %a %a %a %a %zu %zu %zu %zu %s %a | %zu %zu %zu "
                  "%zu %zu %a %a %zu %zu",
                  r.averagePowerMw, r.recall, r.precision,
                  r.timeline.energyMj, r.timeline.awakeSeconds,
                  r.meanDetectionLatencySeconds, r.hubTriggerCount,
                  r.detection.truePositives, r.detection.falsePositives,
                  r.detection.falseNegatives, r.mcuName.c_str(), r.hubMw,
                  f.retransmits, f.framesLost, f.framesDropped,
                  f.bytesCorrupted, f.decoderDroppedBytes,
                  f.hubDownSeconds, f.fallbackEnergyMj, f.updatesCommitted,
                  f.updatesRolledBack);
}

std::string
pinnedOf(const sw::sim::ConcurrentResult &r)
{
    std::string out = format("%.1f", r.averagePowerMw);
    for (const auto &app : r.apps)
        out += format(" %.6f %zu", app.recall, app.hubTriggerCount);
    return out;
}

std::string
exactOf(const sw::sim::ConcurrentResult &r)
{
    std::string out = format("%a %a %s %zu", r.averagePowerMw,
                             r.timeline.energyMj, r.mcuName.c_str(),
                             r.hubNodeCount);
    for (const auto &app : r.apps)
        out += format(" %s %a %a %zu", app.appName.c_str(), app.recall,
                      app.precision, app.hubTriggerCount);
    return out;
}

// ----- grid workloads: audio, robot, faults -----

struct Cell
{
    /** Label suffix after "app/trace/". */
    std::string name;
    const sw::trace::Trace *trace = nullptr;
    /** Null for a concurrent cell, which runs every app of the grid. */
    const sw::apps::Application *app = nullptr;
    sw::sim::SimConfig config;
};

struct Grid
{
    std::vector<sw::trace::Trace> traces;
    std::vector<std::unique_ptr<sw::apps::Application>> apps;
    std::vector<Cell> cells;
    double generateSeconds = 0.0;
    /** faults: the fault-free cell must equal simulate()'s fast path. */
    std::string fastPathLabel;
    sw::sim::SimResult fastPath;
};

sw::sim::SimConfig
strategyConfig(Strategy strategy, double sleep = 10.0,
               double threshold = 0.0)
{
    sw::sim::SimConfig config;
    config.strategy = strategy;
    config.sleepIntervalSeconds = sleep;
    config.predefinedThreshold = threshold;
    return config;
}

void
addCell(Grid &grid, const sw::apps::Application &app,
        const sw::trace::Trace &trace, const std::string &name,
        const sw::sim::SimConfig &config)
{
    grid.cells.push_back({name, &trace, &app, config});
}

/**
 * The Predefined Activity calibration sweep on one trace: every
 * candidate threshold. The experiment's PA figure is the sweep cell at
 * sim::calibratePredefinedThreshold's pick; running the whole sweep
 * keeps a pass's cells the same at every seed.
 */
void
addSweep(Grid &grid, const sw::apps::Application &app,
         const sw::trace::Trace &trace, const std::vector<double> &thresholds)
{
    for (double threshold : thresholds)
        addCell(grid, app, trace, format("PA@%g", threshold),
                strategyConfig(Strategy::PredefinedActivity, 10.0,
                               threshold));
}

// Cells run trace by trace, so a stretch of the pass reads one trace
// and the working set stays small while other processes share the
// host's caches.

/** Table 2: per audio trace and app the PA sweep, Oracle and Sw; then
 *  all three apps sharing one hub on that trace. */
Grid
audioGrid(std::uint64_t seed, const Scale &scale)
{
    Grid grid;
    const auto begin = Clock::now();
    grid.traces = sw::trace::generateAudioCorpus(scale.audioSeconds, seed);
    grid.generateSeconds = secondsSince(begin);
    grid.apps = sw::apps::audioApps();
    for (const auto &trace : grid.traces) {
        for (const auto &app : grid.apps) {
            addSweep(grid, *app, trace, {0.05, 0.07, 0.09, 0.12, 0.16, 0.22});
            addCell(grid, *app, trace, "Oracle",
                    strategyConfig(Strategy::Oracle));
            addCell(grid, *app, trace, "Sw",
                    strategyConfig(Strategy::Sidewinder));
        }
        grid.cells.push_back({"Sw-concurrent", &trace, nullptr,
                              strategyConfig(Strategy::Sidewinder)});
    }
    return grid;
}

/** Figure 5: per robot run and accelerometer app the PA sweep, Oracle
 *  and every other strategy. */
Grid
robotGrid(std::uint64_t seed, const Scale &scale)
{
    Grid grid;
    const auto begin = Clock::now();
    grid.traces = sw::trace::generateRobotCorpus(scale.robotSeconds, seed);
    grid.generateSeconds = secondsSince(begin);
    grid.apps = sw::apps::accelerometerApps();
    for (const auto &trace : grid.traces) {
        for (const auto &app : grid.apps) {
            addSweep(grid, *app, trace, {0.3, 0.5, 0.8, 1.2, 2.0});
            addCell(grid, *app, trace, "Oracle",
                    strategyConfig(Strategy::Oracle, 0.0));
            addCell(grid, *app, trace, "AA",
                    strategyConfig(Strategy::AlwaysAwake, 0.0));
            for (double sleep : {2.0, 5.0, 10.0, 20.0, 30.0})
                addCell(grid, *app, trace, format("DC-%g", sleep),
                        strategyConfig(Strategy::DutyCycling, sleep));
            addCell(grid, *app, trace, "Ba-10",
                    strategyConfig(Strategy::Batching, 10.0));
            addCell(grid, *app, trace, "Sw",
                    strategyConfig(Strategy::Sidewinder, 0.0));
        }
    }
    return grid;
}

/** The BENCH_faults grid on the supervised Sw stack, plus live
 *  reconfiguration under update-window corruption. */
Grid
faultsGrid(std::uint64_t seed, const Scale &scale)
{
    Grid grid;
    sw::trace::RobotRunConfig run;
    run.idleFraction = 0.5;
    run.durationSeconds = scale.robotSeconds;
    run.seed = seed;
    run.name = "fault-run";
    const auto begin = Clock::now();
    grid.traces.push_back(sw::trace::generateRobotRun(run));
    grid.generateSeconds = secondsSince(begin);
    grid.apps.push_back(sw::apps::makeStepsApp());
    const auto &trace = grid.traces.front();
    const auto &app = *grid.apps.front();
    const double seconds = scale.robotSeconds;

    const sw::sim::SimConfig base = strategyConfig(Strategy::Sidewinder);
    auto add = [&](const std::string &name, const sw::sim::FaultPlan &plan) {
        sw::sim::SimConfig config = base;
        config.faults = plan;
        addCell(grid, app, trace, name, config);
    };
    // An explicit no-fault plan must leave simulate() on its fast path.
    sw::sim::FaultPlan none;
    none.seed = seed;
    add("fault-free", none);
    grid.fastPathLabel = app.name() + "/" + trace.name + "/fault-free";
    grid.fastPath = sw::sim::simulate(trace, app, base);

    for (double rate : {1e-4, 5e-4, 1e-3, 2e-3, 5e-3}) {
        sw::sim::FaultPlan plan;
        plan.byteCorruptionRate = rate;
        add(format("corruption@%g", rate), plan);
    }
    for (double rate : {0.01, 0.05, 0.1, 0.2}) {
        sw::sim::FaultPlan plan;
        plan.frameDropRate = rate;
        add(format("drop@%g", rate), plan);
    }
    for (int resets : {1, 2, 4}) {
        sw::sim::FaultPlan plan;
        for (int i = 1; i <= resets; ++i)
            plan.hubResetTimes.push_back(seconds * i / (resets + 1));
        plan.hubResetDowntimeSeconds = 10.0;
        add(format("resets@%d", resets), plan);
    }
    sw::sim::FaultPlan reconfig;
    reconfig.reconfigUpdates = {{seconds / 3.0, 0.8},
                                {2.0 * seconds / 3.0, 1.25}};
    reconfig.updateCorruptionRate = 1e-3;
    add("reconfig", reconfig);
    return grid;
}

/** One executed cell. */
struct CellRun
{
    std::string label;
    const sw::trace::Trace *trace = nullptr;
    sw::sim::SimConfig config;
    bool concurrent = false;
    bool ok = false;
    std::string error;
    sw::sim::SimResult sim;
    std::string exact;
    std::string pinned;
    /** Wall time of the simulation call. */
    double seconds = 0.0;
};

struct Pass
{
    std::vector<CellRun> runs;
    double seconds = 0.0;
    /** Trace samples the pass replayed (sum over its cells). */
    double samples = 0.0;
    /** Traced passes: the rebuilt PA/Sw cells, by run index. */
    std::vector<std::pair<std::size_t, RebuiltCell>> rebuilt;
};

void
runCell(const Grid &grid, const Cell &cell, Tracer *tracer, Pass &pass)
{
    CellRun run;
    run.label = (cell.app ? cell.app->name() : std::string("all")) + "/" +
                cell.trace->name + "/" + cell.name;
    run.trace = cell.trace;
    run.config = cell.config;
    run.concurrent = !cell.app;
    if (tracer)
        tracer->setCell(static_cast<int>(pass.runs.size()));
    sw::sim::ConcurrentResult result;
    const auto begin = Clock::now();
    try {
        if (!cell.app) {
            if (tracer) {
                std::vector<std::unique_ptr<sw::apps::Application>> timed;
                for (const auto &app : grid.apps)
                    timed.push_back(std::make_unique<TimedApp>(*app, *tracer));
                Scope span(tracer, "sim.cell");
                result = sw::sim::simulateConcurrent(*cell.trace, timed,
                                                     cell.config);
            } else {
                result = sw::sim::simulateConcurrent(*cell.trace, grid.apps,
                                                     cell.config);
            }
        } else {
            if (!tracer) {
                run.sim = sw::sim::simulate(*cell.trace, *cell.app,
                                            cell.config);
            } else if (rebuildable(cell.config)) {
                TimedApp timed(*cell.app, *tracer);
                RebuiltCell rebuilt =
                    rebuildCell(*cell.trace, timed, cell.config, tracer);
                run.sim = rebuilt.result;
                pass.rebuilt.emplace_back(pass.runs.size(),
                                          std::move(rebuilt));
            } else {
                TimedApp timed(*cell.app, *tracer);
                Scope span(tracer, "sim.cell");
                run.sim = sw::sim::simulate(*cell.trace, timed, cell.config);
            }
        }
        run.ok = true;
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    run.seconds = secondsSince(begin);
    if (run.ok) {
        run.exact = cell.app ? exactOf(run.sim) : exactOf(result);
        run.pinned = cell.app ? pinnedOf(run.sim) : pinnedOf(result);
    }
    pass.samples += static_cast<double>(cell.trace->sampleCount());
    pass.runs.push_back(std::move(run));
}

Pass
runPass(const Grid &grid, Tracer *tracer)
{
    Pass pass;
    pass.runs.reserve(grid.cells.size());
    const auto begin = Clock::now();
    for (const Cell &cell : grid.cells)
        runCell(grid, cell, tracer, pass);
    pass.seconds = secondsSince(begin);
    return pass;
}

/** Count every cell of @p pass; fail those that threw, differ from
 *  @p reference, or miss their pinned or fast-path value. */
void
checkPass(const RunConfig &rc, const Grid &grid, const Pass &pass,
          const Pass *reference, const char *what, Outcome &out)
{
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
        ++out.attempted;
        const CellRun &run = pass.runs[i];
        if (!run.ok)
            fail(out, run.label + ": threw: " + run.error);
        else if (reference && (i >= reference->runs.size() ||
                               run.label != reference->runs[i].label ||
                               run.exact != reference->runs[i].exact))
            fail(out, run.label + ": " + what);
        else if (run.label == grid.fastPathLabel &&
                 run.exact != exactOf(grid.fastPath))
            fail(out, run.label + ": differs from simulate()'s fast path");
        else if (!reference)
            checkPinned(rc, run.label, run.pinned, out);
    }
    if (reference && pass.runs.size() < reference->runs.size())
        fail(out, format("pass ran %zu cells, the first %zu",
                         pass.runs.size(), reference->runs.size()));
    if (!reference && !rc.expected.empty() &&
        pass.runs.size() != rc.expected.size())
        fail(out, format("pass ran %zu cells, %zu are pinned",
                         pass.runs.size(), rc.expected.size()));
}

/** Per-layer metrics every rebuilt cell contributes. */
void
rebuildMetrics(const Tracer &tracer, double passes,
               const std::vector<const RebuiltCell *> &rebuilt, Values &m)
{
    auto perCallUs = [&](const char *name) {
        const SpanTotals t = tracer.totals(name);
        return t.calls ? 1e6 * t.seconds / static_cast<double>(t.calls)
                       : 0.0;
    };
    auto perItemNs = [&](const char *name) {
        const SpanTotals t = tracer.totals(name);
        return t.items ? 1e9 * t.seconds / static_cast<double>(t.items)
                       : 0.0;
    };
    m["core.compile_us"] = perCallUs("core.compile");
    m["il.write_us"] = perCallUs("il.write");
    m["il.parse_us"] = perCallUs("il.parse");
    m["il.analyze_us"] = perCallUs("il.analyze");
    m["il.ranges_us"] = perCallUs("il.ranges");
    m["il.lower_us"] = perCallUs("il.lower");
    m["hub.place_us"] = perCallUs("hub.place");
    m["hub.install_us"] = perCallUs("hub.install");
    m["metrics.match_us"] = perCallUs("metrics.match");
    m["hub.ingest_ns_per_sample"] = perItemNs("hub.ingest");
    m["hub.ingest_block_ns_per_sample"] = perItemNs("hub.ingest_block");
    m["apps.classify_ns_per_sample"] = perItemNs("apps.classify");
    m["apps.classified_samples"] =
        static_cast<double>(tracer.totals("apps.classify").items) / passes;

    const SpanTotals cells = tracer.totals("sim.cell");
    m["hub.ingest_share"] =
        cells.seconds > 0.0
            ? tracer.totals("hub.ingest").seconds / cells.seconds
            : 0.0;
    m["sim.cell_self_s"] = cells.selfSeconds / passes;

    std::size_t intervals = 0, useful = 0, ram = 0;
    for (const RebuiltCell *cell : rebuilt) {
        intervals += cell->intervals;
        useful += cell->usefulIntervals;
        ram += cell->ramBytes;
    }
    m["hub.useful_wake_ratio"] =
        intervals ? static_cast<double>(useful) /
                        static_cast<double>(intervals)
                  : 0.0;
    if (!rebuilt.empty())
        m["hub.ram_bytes_per_device"] = static_cast<double>(ram) /
                                        static_cast<double>(rebuilt.size());
}

/** K=64 block replay of every rebuilt cell: wakes must equal K=1's. */
void
checkBlocks(const std::vector<std::pair<const sw::trace::Trace *,
                                        const RebuiltCell *>> &cells,
            Tracer &tracer, Outcome &out)
{
    tracer.setCell(-1);
    for (const auto &[trace, cell] : cells)
        if (!sameWakes(cell->wakes, replayBlocks(*trace, *cell, 64, &tracer))) {
            out.correct = false;
            out.notes.push_back(cell->result.configName +
                                ": K=64 wakes differ from K=1");
        }
}

Outcome
runGrid(const RunConfig &rc, Grid (*make)(std::uint64_t, const Scale &))
{
    Outcome out;
    Values m;
    const auto plansBefore = sw::dsp::fftCounters().plansBuilt;
    recordHost(m, out);

    std::unique_ptr<Grid> grid;
    repeatSetup(
        [&] {
            grid.reset();
            grid = std::make_unique<Grid>(make(rc.seed, rc.scale));
            return grid->generateSeconds;
        },
        m);

    // Untraced passes; a plain run makes at least two so the second
    // can be checked against the first.
    const double budget = rc.trace ? rc.seconds / 2.0 : rc.seconds;
    const std::size_t minPasses = rc.trace ? 1 : 2;
    Pass first;
    std::vector<double> rates, passSeconds;
    // Fastest repetition of each cell over the run's passes.
    std::vector<double> bestSeconds;
    const auto begin = Clock::now();
    for (std::size_t p = 0; p < minPasses || secondsSince(begin) < budget;
         ++p) {
        const std::uint64_t fftBefore = fftTransforms();
        Pass pass = runPass(*grid, nullptr);
        if (p == 0)
            m["dsp.fft_transforms"] =
                static_cast<double>(fftTransforms() - fftBefore);
        checkPass(rc, *grid, pass, p == 0 ? nullptr : &first,
                  "differs from the first pass", out);
        rates.push_back(pass.samples / pass.seconds);
        bestSeconds.resize(pass.runs.size(), pass.seconds);
        for (std::size_t i = 0; i < pass.runs.size(); ++i)
            bestSeconds[i] = std::min(bestSeconds[i], pass.runs[i].seconds);
        passSeconds.push_back(pass.seconds);
        if (p == 0)
            first = std::move(pass);
    }
    recordThroughput(first.samples / std::accumulate(bestSeconds.begin(),
                                                     bestSeconds.end(), 0.0),
                     rates, m, out);

    std::vector<sw::sim::SimResult> swCells;
    std::vector<double> swPower;
    double wakes = 0.0, faultedTriggers = 0.0, faultedCells = 0.0;
    sw::metrics::FaultMetrics faults;
    for (const CellRun &run : first.runs) {
        out.pinned.emplace_back(run.label, run.pinned);
        if (run.concurrent || !run.ok)
            continue;
        if (run.config.strategy == Strategy::Sidewinder) {
            swCells.push_back(run.sim);
            swPower.push_back(run.sim.averagePowerMw);
        }
        if (rebuildable(run.config) || run.config.faults.any())
            wakes += static_cast<double>(run.sim.hubTriggerCount);
        if (run.config.faults.any()) {
            faults += run.sim.faults;
            faultedTriggers += static_cast<double>(run.sim.hubTriggerCount);
            faultedCells += 1.0;
        }
    }
    m["recall"] = pooledRecall(swCells);

    if (rc.trace) {
        m["hub.wakes"] = wakes;
        m["sim.power_mw"] = mean(swPower);
        m["transport.retransmits"] = static_cast<double>(faults.retransmits);
        m["transport.frames_lost"] = static_cast<double>(faults.framesLost);
        m["transport.decoder_dropped_bytes"] =
            static_cast<double>(faults.decoderDroppedBytes);
        m["transport.hub_down_s"] = faults.hubDownSeconds;
        m["transport.fallback_energy_mj"] = faults.fallbackEnergyMj;
        m["hub.reconfig_committed"] =
            static_cast<double>(faults.updatesCommitted);
        m["hub.reconfig_rolled_back"] =
            static_cast<double>(faults.updatesRolledBack);
        if (faultedCells > 0.0 && grid->fastPath.hubTriggerCount > 0)
            m["transport.wake_delivery_ratio"] =
                faultedTriggers /
                (faultedCells *
                 static_cast<double>(grid->fastPath.hubTriggerCount));

        // Traced passes must reproduce the untraced outputs exactly.
        Tracer tracer;
        std::vector<double> tracedSeconds;
        Pass traced;
        const auto tracedBegin = Clock::now();
        for (std::size_t p = 0;
             p == 0 || secondsSince(tracedBegin) < budget; ++p) {
            Pass pass = runPass(*grid, &tracer);
            checkPass(rc, *grid, pass, &first,
                      "traced run differs from untraced", out);
            tracedSeconds.push_back(pass.seconds);
            if (p == 0)
                traced = std::move(pass);
        }
        std::vector<const RebuiltCell *> rebuilt;
        std::vector<std::pair<const sw::trace::Trace *, const RebuiltCell *>>
            blocks;
        for (const auto &[index, cell] : traced.rebuilt) {
            rebuilt.push_back(&cell);
            blocks.emplace_back(traced.runs[index].trace, &cell);
        }
        checkBlocks(blocks, tracer, out);
        rebuildMetrics(tracer, static_cast<double>(tracedSeconds.size()),
                       rebuilt, m);
        m["bench.trace_overhead"] =
            median(tracedSeconds) / median(passSeconds) - 1.0;
        if (!rc.spansPath.empty() && !tracer.write(rc.spansPath))
            out.notes.push_back("could not write " + rc.spansPath);
    }
    m["dsp.fft_plans_built"] = static_cast<double>(
        sw::dsp::fftCounters().plansBuilt - plansBefore);

    emitMetrics(rc, m, out);
    return out;
}

// ----- fleet -----

std::string
digestOf(const sw::sim::FleetResult &r)
{
    return format("%016llx %zu %zu",
                  static_cast<unsigned long long>(r.digest),
                  r.samplesIngested, r.wakeEvents);
}

/** Remove and reinstall the condition of every churnStride-th device. */
void
churn(sw::sim::FleetRuntime &fleet,
      const std::vector<sw::sim::FleetAppMix> &mix, Tracer *tracer)
{
    for (std::size_t d = 0; d < fleet.deviceCount(); d += churnStride) {
        {
            Scope span(tracer, "hub.install");
            fleet.removeCondition(d, 1);
        }
        bool admitted = false;
        {
            Scope span(tracer, "hub.install");
            admitted = fleet.installCondition(
                d, 1, *mix[static_cast<std::size_t>(fleet.deviceAppIndex(d))].app);
        }
        if (!admitted)
            throw std::runtime_error("churned condition was not readmitted");
    }
}

/** Churn + run() passes; returns each pass's digest line. */
struct FleetPasses
{
    std::vector<std::string> digests;
    std::vector<double> seconds;
    std::vector<double> rates;
    sw::sim::FleetResult last;
};

FleetPasses
runFleetPasses(sw::sim::FleetRuntime &fleet,
               const std::vector<sw::sim::FleetAppMix> &mix,
               sw::support::ThreadPool &pool, std::size_t minPasses,
               double budget, Tracer *tracer, Outcome &out)
{
    FleetPasses passes;
    std::size_t ingested = fleet.collect().samplesIngested;
    const auto begin = Clock::now();
    for (std::size_t p = 0; p < minPasses || secondsSince(begin) < budget;
         ++p) {
        ++out.attempted;
        try {
            const auto start = Clock::now();
            churn(fleet, mix, tracer);
            {
                Scope span(tracer, "sim.fleet_run");
                fleet.run(pool);
            }
            const double seconds = secondsSince(start);
            passes.last = fleet.collect();
            passes.seconds.push_back(seconds);
            passes.rates.push_back(
                static_cast<double>(passes.last.samplesIngested - ingested) /
                seconds);
            ingested = passes.last.samplesIngested;
            passes.digests.push_back(digestOf(passes.last));
        } catch (const std::exception &e) {
            passes.digests.push_back("threw");
            fail(out, format("fleet pass %zu threw: %s", p + 1, e.what()));
        }
    }
    return passes;
}

/** Fail every pass of @p replay whose digest differs from @p reference. */
void
compareDigests(const FleetPasses &replay, const FleetPasses &reference,
               const char *what, Outcome &out)
{
    for (std::size_t p = 0; p < replay.digests.size(); ++p)
        if (p >= reference.digests.size() ||
            replay.digests[p] != reference.digests[p])
            fail(out, format("fleet pass %zu: %s", p + 1, what));
}

Outcome
runFleet(const RunConfig &rc)
{
    Outcome out;
    Values m;
    const auto plansBefore = sw::dsp::fftCounters().plansBuilt;
    recordHost(m, out);

    const auto steps = sw::apps::makeStepsApp();
    const auto transitions = sw::apps::makeTransitionsApp();
    const auto headbutts = sw::apps::makeHeadbuttsApp();
    const std::vector<sw::sim::FleetAppMix> mix = {
        {steps.get(), 0.7}, {transitions.get(), 0.2}, {headbutts.get(), 0.1}};

    sw::sim::FleetConfig config;
    config.deviceCount = rc.scale.fleetDevices;
    config.devicesPerShard = 64;
    config.blockSamples = 64;
    config.secondsPerDevice = 4.0;
    config.seed = rc.seed;
    config.rawBufferSize = 64;
    config.executors = sw::hub::platformExecutors();

    sw::trace::RobotRunConfig run;
    run.idleFraction = 0.5;
    run.durationSeconds = rc.scale.robotSeconds;
    run.seed = rc.seed;
    run.name = "fleet-trace";

    sw::support::ThreadPool pool(poolWidth);
    sw::trace::Trace trace;
    std::unique_ptr<sw::sim::FleetRuntime> fleet;
    std::vector<double> builds;
    repeatSetup(
        [&] {
            fleet.reset();
            const auto begin = Clock::now();
            trace = sw::trace::generateRobotRun(run);
            const double generate = secondsSince(begin);
            fleet = std::make_unique<sw::sim::FleetRuntime>(config, mix, trace);
            const auto build = Clock::now();
            fleet->build(pool);
            builds.push_back(secondsSince(build));
            return generate;
        },
        m);
    m["sim.fleet_build_s"] = median(builds);

    // The mix's Sidewinder cells on the fleet trace, placed like the
    // fleet's tenants: the modeled recall of what the fleet runs.
    sw::sim::SimConfig swConfig = strategyConfig(Strategy::Sidewinder);
    swConfig.hubBackend = sw::sim::HubBackend::Heterogeneous;
    std::vector<sw::sim::SimResult> swResults(mix.size());
    std::vector<double> powers;
    for (std::size_t a = 0; a < mix.size(); ++a) {
        const std::string label = "sw/" + mix[a].app->name();
        ++out.attempted;
        try {
            swResults[a] = sw::sim::simulate(trace, *mix[a].app, swConfig);
            powers.push_back(swResults[a].averagePowerMw);
            out.pinned.emplace_back(label, pinnedOf(swResults[a]));
            checkPinned(rc, label, out.pinned.back().second, out);
        } catch (const std::exception &e) {
            fail(out, label + ": threw: " + e.what());
        }
    }
    m["recall"] = pooledRecall(swResults);

    const double budget = rc.trace ? rc.seconds / 2.0 : rc.seconds;
    const FleetPasses timed = runFleetPasses(*fleet, mix, pool,
                                             checkedFleetPasses, budget,
                                             nullptr, out);
    recordThroughput(timed.rates.empty()
                         ? 0.0
                         : *std::max_element(timed.rates.begin(),
                                             timed.rates.end()),
                     timed.rates, m, out);
    for (std::size_t p = 0; p < checkedFleetPasses; ++p) {
        const std::string label = format("pass%zu", p + 1);
        out.pinned.emplace_back(label, timed.digests[p]);
        checkPinned(rc, label, timed.digests[p], out);
    }
    const std::size_t admitted = timed.last.admittedDevices;
    if (admitted != config.deviceCount)
        fail(out, format("fleet admitted %zu of %zu devices", admitted,
                         config.deviceCount));

    // The same pass sequence on a wider pool must give the same digests.
    fleet.reset();
    {
        sw::support::ThreadPool wide(std::min(hostCores(), maxCheckWidth));
        sw::sim::FleetRuntime replay(config, mix, trace);
        replay.build(wide);
        compareDigests(runFleetPasses(replay, mix, wide, checkedFleetPasses,
                                      0.0, nullptr, out),
                       timed, "a wider pool changes the digest", out);
    }

    if (rc.trace) {
        Tracer tracer;
        {
            sw::sim::FleetRuntime traced(config, mix, trace);
            traced.build(pool);
            const FleetPasses passes =
                runFleetPasses(traced, mix, pool, timed.digests.size(), 0.0,
                               &tracer, out);
            compareDigests(passes, timed, "traced run differs from untraced",
                           out);
            m["bench.trace_overhead"] =
                median(passes.seconds) / median(timed.seconds) - 1.0;
        }
        const SpanTotals runs = tracer.totals("sim.fleet_run");
        m["sim.fleet_run_s"] =
            runs.calls ? runs.seconds / static_cast<double>(runs.calls) : 0.0;

        std::vector<RebuiltCell> rebuilt;
        for (std::size_t a = 0; a < mix.size(); ++a) {
            ++out.attempted;
            tracer.setCell(static_cast<int>(a));
            try {
                TimedApp timed_app(*mix[a].app, tracer);
                rebuilt.push_back(
                    rebuildCell(trace, timed_app, swConfig, &tracer));
                if (!sameResult(rebuilt.back().result, swResults[a]))
                    fail(out, "sw/" + mix[a].app->name() +
                                  ": traced rebuild differs from simulate()");
            } catch (const std::exception &e) {
                fail(out, "sw/" + mix[a].app->name() + ": rebuild threw: " +
                              e.what());
            }
        }
        std::vector<const RebuiltCell *> cells;
        std::vector<std::pair<const sw::trace::Trace *, const RebuiltCell *>>
            blocks;
        for (const RebuiltCell &cell : rebuilt) {
            cells.push_back(&cell);
            blocks.emplace_back(&trace, &cell);
        }
        checkBlocks(blocks, tracer, out);
        rebuildMetrics(tracer, 1.0, cells, m);

        // Fleet-level figures override the per-cell ones where the
        // fleet has its own.
        const auto &last = timed.last;
        m["hub.ram_bytes_per_device"] =
            static_cast<double>(last.modeledRamBytes) /
            static_cast<double>(config.deviceCount);
        m["hub.plan_cache.misses"] = static_cast<double>(last.cache.misses);
        m["hub.plan_cache.hit_rate"] = last.cache.hitRate();
        m["hub.wakes"] = static_cast<double>(last.wakeEvents) /
                         static_cast<double>(timed.digests.size());
        m["sim.power_mw"] = mean(powers);
        if (!rc.spansPath.empty() && !tracer.write(rc.spansPath))
            out.notes.push_back("could not write " + rc.spansPath);
    }
    m["dsp.fft_plans_built"] = static_cast<double>(
        sw::dsp::fftCounters().plansBuilt - plansBefore);

    emitMetrics(rc, m, out);
    return out;
}

} // namespace

double
Outcome::metric(const std::string &name) const
{
    for (const Metric &metric : metrics)
        if (metric.name == name)
            return metric.value;
    throw std::out_of_range("no metric " + name);
}

Outcome
runWorkload(const RunConfig &config)
{
    if (config.workload == "audio")
        return runGrid(config, audioGrid);
    if (config.workload == "robot")
        return runGrid(config, robotGrid);
    if (config.workload == "faults")
        return runGrid(config, faultsGrid);
    if (config.workload == "fleet")
        return runFleet(config);
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

} // namespace e2e
