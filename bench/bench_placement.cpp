/**
 * @file
 * Negotiated-congestion placement vs the frozen greedy ladder over a
 * mixed 10k-device fleet: every device draws 1–3 wake conditions from
 * the shipped-app corpus (seeded, so the population is reproducible)
 * and homes them across the platform executor space (MSP430 /
 * LM4F120 / iCE40-hub / AP-fallback) twice — once with
 * hub::Placer::place() and once with the placeGreedy() baseline.
 *
 * Emits a JSON record (default BENCH_placement.json, or argv[1]) with
 * the fleet-wide hub power under both placers, the energy ratio, the
 * count of rescued conditions (greedy rejected them or over-
 * provisioned them onto the LM4F120/AP when the negotiated placer
 * found a cheaper home), rip-up/convergence counters, placement
 * throughput, and a `deterministic` flag proving a 1-thread and a
 * 4-thread sweep produce bit-identical placements.
 *
 * scripts/check_bench_regression.py --placement gates: negotiated
 * fleet power must not exceed greedy, at least one condition must be
 * rescued, and the sweep must be deterministic.
 *
 * SW_FAST=1 shrinks the population; the gated ratios are
 * population-independent in practice.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "bench_common.h"
#include "hub/placer.h"
#include "il/lower.h"
#include "il/plan.h"
#include "support/rng.h"

using namespace sidewinder;

namespace {

/** FNV-1a fold of one 64-bit word. */
std::uint64_t
fnvU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffu;
        h *= 1099511628211ULL;
    }
    return h;
}

struct DeviceOutcome
{
    double negotiatedMw = 0.0;
    double greedyMw = 0.0;
    std::size_t conditions = 0;
    std::size_t rescued = 0;
    std::size_t unplacedNegotiated = 0;
    std::size_t unplacedGreedy = 0;
    std::size_t ripUps = 0;
    bool converged = true;
    std::uint64_t digest = 1469598103934665603ULL;
};

/** Draw and place one device's condition set (pure in device index). */
DeviceOutcome
placeDevice(std::size_t device,
            const std::vector<il::ExecutionPlan> &corpus,
            const std::vector<double> &weights)
{
    Rng rng(0x514c3ULL + device);
    hub::Placer placer(hub::platformExecutors());
    const long conditions = rng.uniformInt(1, 3);
    for (long c = 0; c < conditions; ++c)
        placer.addCondition(corpus[rng.weightedIndex(weights)]);

    const hub::PlacementResult negotiated = placer.place();
    const hub::PlacementResult greedy = placer.placeGreedy();

    DeviceOutcome out;
    out.conditions = static_cast<std::size_t>(conditions);
    out.negotiatedMw = negotiated.totalPowerMw;
    out.greedyMw = greedy.totalPowerMw;
    out.unplacedNegotiated = negotiated.unplaced;
    out.unplacedGreedy = greedy.unplaced;
    out.ripUps = negotiated.ripUps;
    out.converged = negotiated.converged;
    for (std::size_t c = 0; c < negotiated.decisions.size(); ++c) {
        const auto &n = negotiated.decisions[c];
        const auto &g = greedy.decisions[c];
        // Rescued: the ladder rejected the condition, or parked it on
        // the power-hungry LM4F120 / AP while negotiation found a
        // strictly cheaper home.
        const bool over_provisioned =
            g.placed() && n.placed() &&
            (g.executorName == "LM4F120" ||
             g.kind == hub::ExecutorKind::ApFallback) &&
            n.marginalPowerMw < g.marginalPowerMw;
        if ((!g.placed() && n.placed()) || over_provisioned)
            out.rescued += 1;
        out.digest = fnvU64(out.digest,
                            static_cast<std::uint64_t>(
                                n.executorIndex + 1));
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof n.marginalPowerMw);
        std::memcpy(&bits, &n.marginalPowerMw, sizeof bits);
        out.digest = fnvU64(out.digest, bits);
    }
    return out;
}

struct SweepResult
{
    double negotiatedMw = 0.0;
    double greedyMw = 0.0;
    std::size_t conditions = 0;
    std::size_t rescued = 0;
    std::size_t unplacedNegotiated = 0;
    std::size_t unplacedGreedy = 0;
    std::size_t ripUps = 0;
    std::size_t unconverged = 0;
    std::uint64_t digest = 1469598103934665603ULL;
};

/** Place the whole population on @p threads workers. Device order in
 *  the fold is fixed, so the digest is thread-count independent. */
SweepResult
sweep(std::size_t devices, std::size_t threads,
      const std::vector<il::ExecutionPlan> &corpus,
      const std::vector<double> &weights)
{
    std::vector<DeviceOutcome> outcomes(devices);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            for (std::size_t d = t; d < devices; d += threads)
                outcomes[d] = placeDevice(d, corpus, weights);
        });
    for (auto &w : workers)
        w.join();

    SweepResult total;
    for (const auto &o : outcomes) {
        total.negotiatedMw += o.negotiatedMw;
        total.greedyMw += o.greedyMw;
        total.conditions += o.conditions;
        total.rescued += o.rescued;
        total.unplacedNegotiated += o.unplacedNegotiated;
        total.unplacedGreedy += o.unplacedGreedy;
        total.ripUps += o.ripUps;
        total.unconverged += o.converged ? 0 : 1;
        total.digest = fnvU64(total.digest, o.digest);
    }
    return total;
}

double
elapsedMs(std::chrono::steady_clock::time_point begin)
{
    const auto d = std::chrono::steady_clock::now() - begin;
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_placement.json";
    const std::size_t devices = bench::fastMode() ? 2000 : 10000;

    // The shipped-app corpus, lowered as the hub installs it. The
    // skew mirrors bench_fleet_scaling's accel mix, with an audio tail
    // (siren / music / phrase) that does not fit the MSP430 — the
    // conditions the greedy ladder over-provisions.
    std::vector<il::ExecutionPlan> corpus;
    std::vector<double> weights;
    std::vector<std::string> names;
    auto add = [&](std::unique_ptr<apps::Application> app, double w) {
        corpus.push_back(
            il::lower(app->wakeCondition().compile(), app->channels()));
        weights.push_back(w);
        names.push_back(app->name());
    };
    add(apps::makeStepsApp(), 0.40);
    add(apps::makeTransitionsApp(), 0.15);
    add(apps::makeHeadbuttsApp(), 0.10);
    add(apps::makeGestureApp(), 0.10);
    add(apps::makeFloorsApp(), 0.05);
    add(apps::makeSirenApp(), 0.10);
    add(apps::makeMusicJournalApp(), 0.05);
    add(apps::makePhraseApp(), 0.05);

    std::printf("Placement: %zu devices, %zu-app corpus%s\n", devices,
                corpus.size(), bench::fastMode() ? " [SW_FAST]" : "");
    bench::rule();

    const auto begin = std::chrono::steady_clock::now();
    const SweepResult serial = sweep(devices, 1, corpus, weights);
    const double serial_ms = elapsedMs(begin);
    const SweepResult parallel = sweep(devices, 4, corpus, weights);
    const bool deterministic = serial.digest == parallel.digest;

    const double ratio =
        serial.greedyMw > 0.0 ? serial.negotiatedMw / serial.greedyMw
                              : 1.0;
    const double placements_per_sec =
        static_cast<double>(serial.conditions) / (serial_ms / 1000.0);

    std::printf("conditions           %zu\n", serial.conditions);
    std::printf("fleet power (greedy) %.1f mW\n", serial.greedyMw);
    std::printf("fleet power (negot.) %.1f mW\n", serial.negotiatedMw);
    std::printf("energy ratio         %.4f\n", ratio);
    std::printf("rescued conditions   %zu\n", serial.rescued);
    std::printf("unplaced greedy/neg. %zu / %zu\n",
                serial.unplacedGreedy, serial.unplacedNegotiated);
    std::printf("rip-ups              %zu (unconverged %zu)\n",
                serial.ripUps, serial.unconverged);
    std::printf("placements/s         %.0f\n", placements_per_sec);
    std::printf("1 vs 4 threads: %s\n",
                deterministic ? "bit-identical" : "MISMATCH");
    bench::rule();

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"benchmark\": \"placement\",\n"
                 "  \"devices\": %zu,\n"
                 "  \"conditions\": %zu,\n"
                 "  \"fast_mode\": %s,\n",
                 devices, serial.conditions,
                 bench::fastMode() ? "true" : "false");
    bench::writeThreadContext(out, "  ");
    std::fprintf(
        out,
        ",\n"
        "  \"fleet_power_mw_greedy\": %.6f,\n"
        "  \"fleet_power_mw_negotiated\": %.6f,\n"
        "  \"energy_ratio\": %.6f,\n"
        "  \"rescued_conditions\": %zu,\n"
        "  \"unplaced_greedy\": %zu,\n"
        "  \"unplaced_negotiated\": %zu,\n"
        "  \"rip_ups\": %zu,\n"
        "  \"unconverged\": %zu,\n"
        "  \"placements_per_sec\": %.1f,\n"
        "  \"deterministic\": %s\n"
        "}\n",
        serial.greedyMw, serial.negotiatedMw, ratio, serial.rescued,
        serial.unplacedGreedy, serial.unplacedNegotiated,
        serial.ripUps, serial.unconverged, placements_per_sec,
        deterministic ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    return deterministic ? 0 : 1;
}
