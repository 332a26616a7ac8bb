/**
 * @file
 * The traced decomposition of a Predefined Activity or Sidewinder
 * cell: the harness rebuilds sim::simulate() from the public calls
 * each layer exports — compile, IL wire form, analyze, lower, ranges,
 * place, install, the K=1 push loop, classifyIntervals, match — with a
 * span around each, and must reproduce simulate()'s SimResult exactly.
 */

#ifndef SIDEWINDER_BENCH_E2E_REBUILD_H
#define SIDEWINDER_BENCH_E2E_REBUILD_H

#include <cstddef>
#include <vector>

#include "apps/app.h"
#include "hub/engine.h"
#include "il/plan.h"
#include "sim/simulator.h"
#include "trace/types.h"
#include "tracer.h"

namespace e2e {

/** What the rebuild of one cell produced. */
struct RebuiltCell
{
    sidewinder::sim::SimResult result;
    /** Wake events of the K=1 push loop, in order. */
    std::vector<sidewinder::hub::WakeEvent> wakes;
    /** The engine's channels and plan, for the block replay. */
    std::vector<sidewinder::il::ChannelInfo> channels;
    sidewinder::il::ExecutionPlan plan;
    bool shareNodes = true;
    /** Merged awake intervals, and those whose classified window
     *  overlaps a ground-truth event of the app's type. */
    std::size_t intervals = 0;
    std::size_t usefulIntervals = 0;
    /** Modeled RAM of the installed condition, bytes. */
    std::size_t ramBytes = 0;
};

/** True when rebuildCell() reproduces simulate() for @p config. */
bool rebuildable(const sidewinder::sim::SimConfig &config);

/**
 * Rebuild one fault-free PA or Sidewinder cell under spans. @p app may
 * be a TimedApp so classify() calls are spanned too.
 */
RebuiltCell rebuildCell(const sidewinder::trace::Trace &trace,
                        const sidewinder::apps::Application &app,
                        const sidewinder::sim::SimConfig &config,
                        Tracer *tracer);

/**
 * Replay @p trace through a fresh engine holding @p cell's plan with
 * Engine::pushBlock, @p k waves per call and one drain per block, under
 * one "hub.ingest_block" span.
 */
std::vector<sidewinder::hub::WakeEvent>
replayBlocks(const sidewinder::trace::Trace &trace, const RebuiltCell &cell,
             std::size_t k, Tracer *tracer);

/** True when every modeled output field of @p a and @p b is equal. */
bool sameResult(const sidewinder::sim::SimResult &a,
                const sidewinder::sim::SimResult &b);

/** True when both wake sequences are identical, field for field. */
bool sameWakes(const std::vector<sidewinder::hub::WakeEvent> &a,
               const std::vector<sidewinder::hub::WakeEvent> &b);

} // namespace e2e

#endif // SIDEWINDER_BENCH_E2E_REBUILD_H
