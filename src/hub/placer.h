/**
 * @file
 * Fleet-level negotiated-congestion placement across heterogeneous
 * hub executors (MCU / FPGA / AP-fallback).
 *
 * The paper's "Sizing" step (Section 3.8) picks the hub a condition
 * runs on: the MSP430 cannot run the siren's FFT, so Table 2 puts it
 * on the LM4F120. The placer is the one place that makes this
 * decision, for one condition, for one hub's set of conditions, and
 * for a fleet serving thousands of tenants, which asks it globally:
 * given a *set* of admitted conditions and a *set* of executors with
 * cycle / RAM / wake / logic-cell capacities, find the assignment
 * minimizing total power. With one tenant its minimum-power home is
 * the cheapest executor that fits alone.
 *
 * That is a packing problem, and the placer borrows the
 * negotiated-congestion pattern FPGA routers use (PathFinder-style:
 * base cost + history cost + present-overflow penalty, iterative
 * rip-up/re-place): every (condition, executor) pair gets a
 * precomputed demand row from the sealed il::ExecutionPlan's
 * per-node numbers; conditions first take their individually cheapest
 * home, then executors that overflow accumulate history cost and
 * their tenants are ripped up and re-placed under a growing present
 * penalty until no capacity is exceeded (or the iteration cap trips
 * and a final repair pass evicts newest-first). Ordering is stable
 * and tie-breaks are fixed-seed hashes, so placement is a pure
 * deterministic function of (conditions, executors) — independent of
 * thread count, repeatable run over run.
 *
 * The greedy baseline survives as Placer::placeGreedy() (first-fit in
 * executor order, no re-homing) for the bench_placement ablation.
 */

#ifndef SIDEWINDER_HUB_PLACER_H
#define SIDEWINDER_HUB_PLACER_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "hub/fpga.h"
#include "hub/mcu.h"
#include "il/analyze.h"
#include "il/plan.h"

namespace sidewinder::hub {

/** What kind of silicon a placement target is. */
enum class ExecutorKind
{
    /** A hub microcontroller (cycle/RAM/wake budgets). */
    Mcu,
    /** A reconfigurable fabric (logic-cell budget, dynamic power). */
    Fpga,
    /**
     * The application processor itself: no hub offload, the AP
     * duty-cycles to poll the sensor. Unbounded capacity, priced at
     * the duty-cycling average power — the "last resort" home that
     * turns admission rejection into an expensive accept.
     */
    ApFallback,
};

/**
 * One placement target. Capacity axes left at 0 are unmodeled
 * (unbounded), mirroring McuModel's convention.
 */
struct ExecutorModel
{
    ExecutorKind kind = ExecutorKind::Mcu;
    /** Part name, e.g. "MSP430", "iCE40-hub", "AP". */
    std::string name;
    /** Power while the executor hosts >= 1 condition, mW. */
    double activePowerMw = 0.0;
    /** Sustained compute budget, abstract cycle units/s; 0 = none. */
    double cyclesPerSecond = 0.0;
    /** State RAM budget, bytes; 0 = unmodeled. */
    std::size_t ramBytes = 0;
    /** Sustained AP wake-ups/s budget; 0 = unmodeled. */
    double wakeBudgetHz = 0.0;
    /** Logic-cell budget (FPGA); 0 = unmodeled. */
    std::size_t logicCells = 0;
    /** Dynamic energy per cycle unit, nJ (FPGA); 0 = none. */
    double nanojoulesPerCycleUnit = 0.0;
};

/** Wrap a hub MCU as a placement target. */
ExecutorModel mcuExecutor(const McuModel &mcu);

/** Wrap an FPGA fabric as a placement target. */
ExecutorModel fpgaExecutor(const FpgaModel &fpga);

/**
 * The AP-fallback pseudo-executor: always feasible, priced at the
 * duty-cycling average power of the paper's Table 1 (the Nexus 4
 * polling the sensor itself — see placer.cc for the derivation).
 */
ExecutorModel apFallbackExecutor();

/**
 * The platform's full placement space, cheapest-first within each
 * kind: MSP430, LM4F120, iCE40-hub, AP-fallback.
 */
const std::vector<ExecutorModel> &platformExecutors();

/** The MCU ladder, availableMcus() as placement targets in order. */
const std::vector<ExecutorModel> &mcuExecutors();

/** Stable signature of an executor set (cache keys, reports). */
std::string executorSetSignature(
    const std::vector<ExecutorModel> &executors);

/**
 * What one tenant consumes on one executor. Axes the executor does
 * not model are 0. `feasible` is the empty-ledger check: false when
 * the tenant cannot fit this executor even alone (or, for an FPGA,
 * when some algorithm has no pre-compiled block).
 */
struct PlacementDemand
{
    double cyclesPerSecond = 0.0;
    std::size_t ramBytes = 0;
    double wakeRateHz = 0.0;
    std::size_t logicCells = 0;
    /** Load-dependent power this condition adds here, mW. */
    double dynamicPowerMw = 0.0;
    bool feasible = false;
};

/**
 * Demand of the conditions @p plans, one tenant, on @p executor.
 * @p charged gives the cycle/RAM/wake numbers: plan.cost() for a
 * standalone condition; the engine's *marginal* cost under
 * cross-condition sharing and the range-proven wake bound for a fleet
 * tenant; the sums one engine holding all of @p plans reports (shared
 * nodes counted once) for a hub's condition set. On an FPGA the
 * logic cells and dynamic power come from the plans' nodes: one
 * pre-compiled block per plan node, sized by the larger of its input
 * and output frames, and the node's cycle-unit demand priced at the
 * fabric's energy per unit.
 */
PlacementDemand demandFor(std::span<const il::ExecutionPlan> plans,
                          const ExecutorModel &executor,
                          const il::ProgramCost &charged);

/** Running capacity account of one executor. */
struct ExecutorLedger
{
    double cyclesPerSecond = 0.0;
    std::size_t ramBytes = 0;
    double wakeRateHz = 0.0;
    std::size_t logicCells = 0;
    double dynamicPowerMw = 0.0;
    /** Conditions homed here. */
    std::size_t conditions = 0;
};

/** Where one condition ended up. */
struct PlacementDecision
{
    /** Index into the executor set; -1 when unplaced. */
    int executorIndex = -1;
    ExecutorKind kind = ExecutorKind::Mcu;
    /** Executor name; empty when unplaced. */
    std::string executorName;
    /**
     * Power released if this condition alone were removed, mW:
     * its dynamic power, plus the executor's active power when it is
     * the sole tenant.
     */
    double marginalPowerMw = 0.0;
    /**
     * Where the phone wires this condition's config push:
     * "hub:<name>" for MCU/FPGA homes, "ap:local" for the fallback.
     */
    std::string wireTarget;

    bool
    placed() const
    {
        return executorIndex >= 0;
    }
};

/** Outcome of one placement run. */
struct PlacementResult
{
    /** Per-condition decisions, in addCondition() order. */
    std::vector<PlacementDecision> decisions;
    /** Per-executor accounts, in executor order. */
    std::vector<ExecutorLedger> ledgers;
    /** Active + dynamic power over all occupied executors, mW. */
    double totalPowerMw = 0.0;
    /** Negotiation iterations consumed (0 = first try fit). */
    std::size_t iterations = 0;
    /** Conditions ripped up and re-homed during negotiation. */
    std::size_t ripUps = 0;
    /** True when no executor overflowed when iteration stopped. */
    bool converged = false;
    /** Conditions no executor could take (no AP fallback present). */
    std::size_t unplaced = 0;
};

/**
 * The placement engine. Register conditions (their demand rows are
 * computed once, against every executor), then place(). The object
 * itself is cheap state — executors plus demand rows — so a fleet
 * keeps one per device and re-runs place() at each admission.
 */
class Placer
{
  public:
    explicit Placer(std::vector<ExecutorModel> executors);

    /** Register a standalone condition (charged at plan.cost()). */
    std::size_t addCondition(const il::ExecutionPlan &plan);

    /** Register a condition charged at an explicit cost (fleets pass
     *  the engine's marginal cost + the proven wake bound). */
    std::size_t addCondition(const il::ExecutionPlan &plan,
                             const il::ProgramCost &charged);

    /** Register the conditions one engine holds as one tenant,
     *  charged at the engine's load (see demandFor). */
    std::size_t addConditions(std::span<const il::ExecutionPlan> plans,
                              const il::ProgramCost &charged);

    /** Unregister the most recently added condition (a rejected
     *  admission backs out without rebuilding the table). */
    void removeLast();

    /** Unregister the condition at @p slot; later slots shift down
     *  (callers keeping slot maps must re-index). */
    void removeAt(std::size_t slot);

    /**
     * Negotiated-congestion placement of every registered condition.
     * Pure and deterministic: same conditions + executors give
     * bit-identical results at any thread count, run over run.
     */
    PlacementResult place() const;

    /**
     * The frozen pre-placer baseline: first-fit in executor order
     * with running ledgers, no history, no rip-up. Kept for the
     * bench_placement ablation.
     */
    PlacementResult placeGreedy() const;

    std::size_t
    conditionCount() const
    {
        return demands.size();
    }

    const std::vector<ExecutorModel> &
    executors() const
    {
        return execs;
    }

    /** Demand row of condition @p slot (tests, reports). */
    const std::vector<PlacementDemand> &demandRow(std::size_t slot) const;

  private:
    std::vector<ExecutorModel> execs;
    /** demands[condition][executor]. */
    std::vector<std::vector<PlacementDemand>> demands;
};

/**
 * Place one condition on an otherwise empty executor set: the
 * single-condition sizing question. Unplaced when nothing fits.
 */
PlacementDecision placeCondition(
    const il::ExecutionPlan &plan,
    const std::vector<ExecutorModel> &executors);

/**
 * Home one tenant, the conditions @p plans charged at @p charged
 * (see demandFor), on an otherwise empty executor set: the sizing
 * decision of every simulated hub.
 * @throws CapabilityError when no executor fits the tenant alone,
 *     naming each executor's binding budgets.
 */
PlacementDecision homeConditions(
    std::span<const il::ExecutionPlan> plans,
    const il::ProgramCost &charged,
    const std::vector<ExecutorModel> &executors);

/**
 * SW203 note surfaced at push time: where the placer homed the
 * condition across the full platform space and the marginal power it
 * adds there. @p home must be placed().
 */
il::Diagnostic placementNote(const PlacementDecision &home);

/**
 * Human-readable sizing report for one condition against
 * @p executors: per-executor fit/unfit with the binding axis, the
 * negotiated home, and the greedy ladder's pick. Deterministic text;
 * `swlint --place` pins it in the tests/data/placements corpus.
 */
std::string renderPlacementReport(
    const il::ExecutionPlan &plan,
    const std::vector<ExecutorModel> &executors);

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_PLACER_H
