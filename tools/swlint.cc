/**
 * @file
 * swlint — static analyzer front-end for Sidewinder IL programs.
 *
 * Lints `.il` files (or the built-in application wake conditions with
 * --all-apps) using il::analyze(), reporting dataflow diagnostics
 * (SW0xx errors, SW1xx warnings) plus the hub admission verdict
 * (SW017/SW201) from the MCU capability model and the hub-recovery
 * re-push cost note (SW202).
 *
 * --dump-plan renders each program's lowered il::ExecutionPlan — the
 * exact node set, costs, and sharing keys the hub engine installs —
 * instead of linting (docs/execution-plan.md).
 *
 * Exit status: 0 when clean, 1 when any program has errors (or
 * warnings under --Werror), 2 on usage or I/O errors.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/apps.h"
#include "apps/predefined.h"
#include "core/sensors.h"
#include "hub/mcu.h"
#include "hub/placer.h"
#include "hub/reconfig.h"
#include "il/analyze.h"
#include "il/delta.h"
#include "il/analyze_range.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/plan.h"
#include "il/writer.h"
#include "support/error.h"
#include "transport/link.h"
#include "transport/messages.h"
#include "transport/reliable.h"

namespace {

using namespace sidewinder;

struct Options
{
    bool allApps = false;
    bool warningsAsErrors = false;
    bool json = false;
    bool dumpPlan = false;
    /** Fold the value-range analyzer's SW3xx diagnostics into lint. */
    bool ranges = false;
    /** Prove for Q15 execution: SW301 saturation becomes an error. */
    bool q15 = false;
    /** Render il::renderRanges per program instead of linting. */
    bool dumpRanges = false;
    /** Render the live-reconfiguration delta between two .il files. */
    bool diffPlan = false;
    /** Render each program's negotiated placement across the platform
        executor space instead of linting. */
    bool place = false;
    std::string channelSpec = "all";
    std::vector<std::string> files;
};

/** One program to lint: a name, its IL, and the channels it runs on. */
struct LintUnit
{
    std::string name;
    il::Program program;
    std::vector<il::ChannelInfo> channels;
    /** Syntax error text when the program could not be parsed. */
    std::string parseFailure;
};

void
usage(std::ostream &out)
{
    out << "usage: swlint [options] [file.il ...]\n"
           "\n"
           "Statically analyze Sidewinder IL wake-up conditions.\n"
           "\n"
           "  --all-apps       lint the built-in application wake\n"
           "                   conditions (the IL the phone ships)\n"
           "                   instead of files\n"
           "  --Werror         treat warnings as errors\n"
           "  --json           machine-readable JSON report\n"
           "  --dump-plan      render each program's lowered\n"
           "                   ExecutionPlan instead of linting\n"
           "  --ranges         also run the value-range abstract\n"
           "                   interpreter (SW3xx: Q15 saturation,\n"
           "                   dead/always-firing wakes, proven\n"
           "                   wake-rate bounds)\n"
           "  --q15            prove for Q15 fixed-point execution:\n"
           "                   possible saturation (SW301) becomes an\n"
           "                   error (implies --ranges)\n"
           "  --dump-ranges    render each program's per-node value\n"
           "                   intervals and proofs instead of linting\n"
           "  --place          render each program's negotiated home\n"
           "                   across the platform executor space\n"
           "                   (MSP430 / LM4F120 / iCE40-hub / AP)\n"
           "                   instead of linting; honours --json\n"
           "  --diff-plan OLD.il NEW.il\n"
           "                   render the live-reconfiguration delta a\n"
           "                   hub running OLD would receive to move to\n"
           "                   NEW: shipped vs hash-reused nodes and\n"
           "                   the delta-vs-full wire bytes\n"
           "  --channels SPEC  channels for .il files: accel, audio,\n"
           "                   baro, all (default), or a custom\n"
           "                   NAME=RATE_HZ[,NAME=RATE_HZ...] list\n"
           "  -h, --help       show this help\n";
}

std::vector<il::ChannelInfo>
parseChannelSpec(const std::string &spec)
{
    if (spec == "all")
        return core::allChannels();
    if (spec == "accel")
        return core::accelerometerChannels();
    if (spec == "audio")
        return core::audioChannels();
    if (spec == "baro")
        return core::barometerChannels();

    std::vector<il::ChannelInfo> channels;
    std::stringstream stream(spec);
    std::string item;
    while (std::getline(stream, item, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            throw ConfigError("bad channel spec '" + item +
                              "' (want NAME=RATE_HZ)");
        il::ChannelInfo info;
        info.name = item.substr(0, eq);
        try {
            info.sampleRateHz = std::stod(item.substr(eq + 1));
        } catch (const std::exception &) {
            throw ConfigError("bad channel rate in '" + item + "'");
        }
        if (info.sampleRateHz <= 0.0)
            throw ConfigError("channel rate must be positive in '" +
                              item + "'");
        channels.push_back(std::move(info));
    }
    if (channels.empty())
        throw ConfigError("channel spec '" + spec + "' names no channels");
    return channels;
}

/**
 * The built-in programs in the form SidewinderSensorManager::push
 * ships: the lowered plan's canonical IL.
 */
std::vector<LintUnit>
builtinUnits()
{
    std::vector<LintUnit> units;
    auto add = [&](const std::string &name,
                   const core::ProcessingPipeline &pipeline,
                   std::vector<il::ChannelInfo> channels) {
        LintUnit unit;
        unit.name = name;
        unit.program = il::lower(pipeline.compile(), channels).toProgram();
        unit.channels = std::move(channels);
        units.push_back(std::move(unit));
    };

    for (const auto &app : apps::allApps())
        add("app:" + app->name(), app->wakeCondition(), app->channels());
    add("app:gesture", apps::makeGestureApp()->wakeCondition(),
        apps::makeGestureApp()->channels());
    add("app:floors", apps::makeFloorsApp()->wakeCondition(),
        apps::makeFloorsApp()->channels());
    add("predefined:significantMotion",
        apps::significantMotionCondition(),
        core::accelerometerChannels());
    add("predefined:significantSound", apps::significantSoundCondition(),
        core::audioChannels());
    return units;
}

LintUnit
fileUnit(const std::string &path,
         const std::vector<il::ChannelInfo> &channels)
{
    LintUnit unit;
    unit.name = path;
    unit.channels = channels;

    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();

    try {
        unit.program = il::parse(text.str());
    } catch (const ParseError &error) {
        unit.parseFailure = error.what();
    }
    return unit;
}

/**
 * Analyze one unit and fold in the hub admission verdict. The
 * analyzer lowers the ExecutionPlan — the node set the hub
 * instantiates — in its one walk and prices it, so shared subtrees
 * are not double-charged, and the range pass and the re-push note
 * below read that same plan.
 */
il::AnalysisResult
lint(const LintUnit &unit, const Options &options)
{
    il::AnalysisResult result = il::analyze(unit.program, unit.channels);
    const il::ExecutionPlan &plan = result.plan;
    if (result.ok() && (options.ranges || options.q15)) {
        // Value-range pass (SW3xx): interval proofs over the plan —
        // Q15 saturation, dead or always-firing wakes, and provably
        // tighter wake-rate bounds.
        il::RangeOptions range_options;
        range_options.q15 = options.q15;
        const il::RangeAnalysis ranges = il::analyzeProgramRanges(
            unit.program, plan, range_options);
        for (const auto &d : ranges.diagnostics)
            result.diagnostics.push_back(d);
    }
    if (result.ok()) {
        for (auto &d : hub::admissionDiagnostics(plan))
            result.diagnostics.push_back(std::move(d));

        // Recovery-cost note (SW202): after a hub reset, the phone
        // re-pushes this condition over the reliable channel; report
        // the wire bytes and serialization time of one fault-free
        // re-push so developers can see recovery latency per
        // condition (docs/fault-model.md). The wire form is the
        // plan's canonical IL — what the manager ships.
        const transport::Frame push = transport::encodeConfigPush(
            {0, il::write(plan.toProgram())});
        const std::size_t bytes = transport::reliableWireBytes(push);
        const transport::UartLink uart(115200.0);
        const double millis = uart.transferSeconds(bytes) * 1e3;

        // Live-reconfiguration floor: the delta of updating this
        // condition on a hub where every node is already live (all
        // reused by hash). A real re-tune ships this plus its changed
        // nodes — the best case an update can hope for, next to what
        // a full push costs.
        const std::unordered_set<std::string> live(
            plan.shareKeys.begin(), plan.shareKeys.end());
        const hub::UpdateWireCost update = hub::updateWireCost(
            plan, il::computeDelta(plan, live));

        il::Diagnostic note;
        note.code = il::SW202_REPUSH_COST;
        note.severity = il::Severity::Note;
        note.line = 1;
        note.column = 1;
        std::ostringstream msg;
        msg << "hub-recovery re-push ships " << bytes
            << " wire bytes (~" << std::fixed << std::setprecision(1)
            << millis << " ms at 115200 baud); live-reconfig delta "
            << "floor " << update.deltaBytes << " bytes (~"
            << uart.transferSeconds(update.deltaBytes) * 1e3
            << " ms blind to config, samples keep flowing)";
        note.message = msg.str();
        result.diagnostics.push_back(std::move(note));
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--all-apps") {
            options.allApps = true;
        } else if (arg == "--Werror") {
            options.warningsAsErrors = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg == "--dump-plan") {
            options.dumpPlan = true;
        } else if (arg == "--ranges") {
            options.ranges = true;
        } else if (arg == "--q15") {
            options.q15 = true;
            options.ranges = true;
        } else if (arg == "--dump-ranges") {
            options.dumpRanges = true;
        } else if (arg == "--place") {
            options.place = true;
        } else if (arg == "--diff-plan") {
            options.diffPlan = true;
        } else if (arg == "--channels") {
            if (i + 1 >= argc) {
                std::cerr << "swlint: --channels needs an argument\n";
                return 2;
            }
            options.channelSpec = argv[++i];
        } else if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "swlint: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        } else {
            options.files.push_back(arg);
        }
    }

    if (options.diffPlan) {
        // Diff mode stands alone: lower both programs and render the
        // update the second would ship to a hub running the first.
        if (options.allApps || options.files.size() != 2) {
            std::cerr
                << "swlint: --diff-plan needs exactly OLD.il NEW.il\n";
            return 2;
        }
        try {
            const auto channels = parseChannelSpec(options.channelSpec);
            const LintUnit old_unit = fileUnit(options.files[0], channels);
            const LintUnit new_unit = fileUnit(options.files[1], channels);
            for (const auto *unit : {&old_unit, &new_unit})
                if (!unit->parseFailure.empty())
                    throw ParseError(unit->name + ": " +
                                     unit->parseFailure);
            std::cout << "== diff-plan " << old_unit.name << " -> "
                      << new_unit.name << " ==\n"
                      << hub::renderDiffPlan(
                             il::lower(old_unit.program, channels),
                             il::lower(new_unit.program, channels));
        } catch (const SidewinderError &error) {
            std::cerr << "swlint: " << error.what() << "\n";
            return 2;
        }
        return 0;
    }

    if (!options.allApps && options.files.empty()) {
        std::cerr << "swlint: nothing to lint (give .il files or "
                     "--all-apps)\n";
        usage(std::cerr);
        return 2;
    }

    std::vector<LintUnit> units;
    try {
        if (options.allApps) {
            units = builtinUnits();
        } else {
            const auto channels =
                parseChannelSpec(options.channelSpec);
            for (const auto &path : options.files)
                units.push_back(fileUnit(path, channels));
        }
    } catch (const SidewinderError &error) {
        std::cerr << "swlint: " << error.what() << "\n";
        return 2;
    }

    if (options.dumpRanges) {
        // Render the range analyzer's verdict per unit: one line per
        // plan node with its proven interval, magnitude bound, rate
        // bound, and Q15 verdict, then the SW3xx diagnostics.
        bool any_errors = false;
        for (const auto &unit : units) {
            std::cout << "== " << unit.name << " ==\n";
            if (!unit.parseFailure.empty()) {
                std::cout << "error: " << unit.parseFailure << "\n";
                any_errors = true;
                continue;
            }
            try {
                il::RangeOptions range_options;
                range_options.q15 = options.q15;
                const il::ExecutionPlan plan =
                    il::lower(unit.program, unit.channels);
                std::cout << il::renderRanges(
                    plan, il::analyzeRanges(plan, range_options));
            } catch (const SidewinderError &error) {
                std::cout << "error: " << error.what() << "\n";
                any_errors = true;
            }
        }
        return any_errors ? 1 : 0;
    }

    if (options.place) {
        // Render the negotiated-congestion placement of each unit
        // across the platform executor space (hub/placer.h). The text
        // form is golden-tested (tests/data/placements/), so its
        // format is stable: see hub::renderPlacementReport.
        bool any_errors = false;
        std::string placeJson = "[";
        for (std::size_t i = 0; i < units.size(); ++i) {
            const LintUnit &unit = units[i];
            if (!options.json)
                std::cout << "== " << unit.name << " ==\n";
            try {
                if (!unit.parseFailure.empty())
                    throw ParseError(unit.parseFailure);
                const il::ExecutionPlan plan =
                    il::lower(unit.program, unit.channels);
                if (options.json) {
                    const hub::PlacementDecision home =
                        hub::placeCondition(plan,
                                            hub::platformExecutors());
                    std::ostringstream os;
                    os << "{\"program\":\""
                       << il::escapeJson(unit.name)
                       << "\",\"executor\":\""
                       << il::escapeJson(home.executorName)
                       << "\",\"wireTarget\":\""
                       << il::escapeJson(home.wireTarget)
                       << "\",\"marginalPowerMw\":"
                       << home.marginalPowerMw << "}";
                    placeJson += (i ? ",\n" : "\n") + os.str();
                } else {
                    std::cout << hub::renderPlacementReport(
                        plan, hub::platformExecutors());
                }
            } catch (const SidewinderError &error) {
                any_errors = true;
                if (options.json)
                    placeJson += (i ? ",\n" : "\n") +
                                 std::string("{\"program\":\"") +
                                 il::escapeJson(unit.name) +
                                 "\",\"error\":\"" +
                                 il::escapeJson(error.what()) + "\"}";
                else
                    std::cout << "error: " << error.what() << "\n";
            }
        }
        if (options.json)
            std::cout << placeJson << "\n]\n";
        return any_errors ? 1 : 0;
    }

    if (options.dumpPlan) {
        // Render the lowered ExecutionPlan for each unit — the node
        // set, costs, and sharing keys the hub engine installs. The
        // output is golden-tested (tests/data/plans/), so its format
        // is stable: see il::renderPlan.
        bool any_errors = false;
        for (const auto &unit : units) {
            std::cout << "== " << unit.name << " ==\n";
            if (!unit.parseFailure.empty()) {
                std::cout << "error: " << unit.parseFailure << "\n";
                any_errors = true;
                continue;
            }
            try {
                std::cout << il::renderPlan(
                    il::lower(unit.program, unit.channels));
            } catch (const SidewinderError &error) {
                std::cout << "error: " << error.what() << "\n";
                any_errors = true;
            }
        }
        return any_errors ? 1 : 0;
    }

    bool failed = false;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::string json = "[";

    for (std::size_t i = 0; i < units.size(); ++i) {
        const LintUnit &unit = units[i];

        if (!unit.parseFailure.empty()) {
            // Syntax errors preempt analysis; surface them in the
            // same per-file shape.
            failed = true;
            ++errors;
            if (options.json) {
                il::AnalysisResult empty;
                il::Diagnostic d;
                d.code = "SW000";
                d.severity = il::Severity::Error;
                d.line = 1;
                d.column = 1;
                d.message = unit.parseFailure;
                empty.diagnostics.push_back(std::move(d));
                json += (i ? ",\n" : "\n") +
                        il::renderJson(empty, unit.name);
            } else {
                std::cout << unit.name
                          << ": error: " << unit.parseFailure << "\n";
            }
            continue;
        }

        const il::AnalysisResult result = lint(unit, options);
        errors += result.errorCount();
        warnings += result.warningCount();
        if (result.errorCount() > 0 ||
            (options.warningsAsErrors && result.warningCount() > 0))
            failed = true;

        if (options.json)
            json += (i ? ",\n" : "\n") + il::renderJson(result, unit.name);
        else
            std::cout << il::renderText(result, unit.name);
    }

    if (options.json) {
        std::cout << json << "\n]\n";
    } else {
        std::cout << units.size() << " program(s): " << errors
                  << " error(s), " << warnings << " warning(s)";
        if (options.warningsAsErrors && warnings > 0)
            std::cout << " (warnings are errors)";
        std::cout << "\n";
    }
    return failed ? 1 : 0;
}
