#include "hub/placer.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace sidewinder::hub {

namespace {

// Negotiation constants; they converge every workload in the repo.
/** Rip-up/re-place rounds before the final repair pass. */
constexpr std::size_t kMaxIterations = 32;
/** History cost an executor gains per overflowed round, mW. */
constexpr double kHistoryIncrementMw = 8.0;
/** Present-overflow penalty scale, mW per unit overflow. */
constexpr double kPresentPenaltyMw = 64.0;
/** Salt for deterministic tie-breaks between equal-cost homes. */
constexpr std::uint64_t kTieSeed = 0x5157u;

/** splitmix64 finalizer — the placer's stateless tie-break hash. */
std::uint64_t
mixHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Add @p plan's fabric footprint to @p d: one block per plan node
 *  (lowering already merged shared ones), and the node's cycle-unit
 *  demand priced at the fabric's energy per unit,
 *  mW = (units/s) * nJ/unit * 1e-6.
 *  @throws ConfigError when some algorithm has no block. */
void
addFabricDemand(const il::ExecutionPlan &plan,
                double nanojoules_per_cycle_unit, PlacementDemand &d)
{
    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        // Buffer-bearing blocks size with the larger of their input
        // and output frames (a window's cells hold its output frame).
        const std::size_t input_frame =
            plan.inputCounts[i] > 0 ? plan.inputStream(i, 0).frameSize
                                    : 0;
        d.logicCells += fpgaCellCost(
            plan.algorithms[i],
            std::max(input_frame, plan.streams[i].frameSize));
        d.dynamicPowerMw += plan.cyclesPerInvoke[i] *
                            plan.invokeRateHz[i] *
                            nanojoules_per_cycle_unit * 1e-6;
    }
}

const char *
kindLabel(ExecutorKind kind)
{
    switch (kind) {
      case ExecutorKind::Mcu:
        return "mcu";
      case ExecutorKind::Fpga:
        return "fpga";
      case ExecutorKind::ApFallback:
        return "ap";
    }
    return "?";
}

std::string
wireTargetFor(const ExecutorModel &executor)
{
    return executor.kind == ExecutorKind::ApFallback
               ? std::string("ap:local")
               : "hub:" + executor.name;
}

/** "<name> [<kind>] unfit; cycles 1e+06 > 50000 units/s; ...": every
 *  capacity an infeasible row @p d exceeds on @p x alone, the binding
 *  budgets a report or a rejection names. */
void
writeUnfit(std::ostream &os, const ExecutorModel &x,
           const PlacementDemand &d)
{
    os << x.name << " [" << kindLabel(x.kind) << "] unfit";
    if (x.cyclesPerSecond > 0.0 && d.cyclesPerSecond > x.cyclesPerSecond)
        os << "; cycles " << d.cyclesPerSecond << " > "
           << x.cyclesPerSecond << " units/s";
    if (x.ramBytes != 0 && d.ramBytes > x.ramBytes)
        os << "; ram " << d.ramBytes << " > " << x.ramBytes << " B";
    if (x.wakeBudgetHz > 0.0 && d.wakeRateHz > x.wakeBudgetHz)
        os << "; wake " << d.wakeRateHz << " > " << x.wakeBudgetHz
           << " Hz";
    if (x.logicCells != 0 && d.logicCells > x.logicCells)
        os << "; cells " << d.logicCells << " > " << x.logicCells;
    if (x.kind == ExecutorKind::Fpga && d.logicCells == 0)
        os << "; no fabric block for some algorithm";
}

/** Fractional overflow a demand would cause on top of a ledger:
 *  sum over modeled axes of max(0, (load + demand - cap) / cap). */
double
overflowAfter(const ExecutorModel &e, const ExecutorLedger &led,
              const PlacementDemand &d)
{
    double over = 0.0;
    if (e.cyclesPerSecond > 0.0) {
        const double load = led.cyclesPerSecond + d.cyclesPerSecond;
        if (load > e.cyclesPerSecond)
            over += (load - e.cyclesPerSecond) / e.cyclesPerSecond;
    }
    if (e.ramBytes != 0) {
        const double load =
            static_cast<double>(led.ramBytes + d.ramBytes);
        const double cap = static_cast<double>(e.ramBytes);
        if (load > cap)
            over += (load - cap) / cap;
    }
    if (e.wakeBudgetHz > 0.0) {
        const double load = led.wakeRateHz + d.wakeRateHz;
        if (load > e.wakeBudgetHz)
            over += (load - e.wakeBudgetHz) / e.wakeBudgetHz;
    }
    if (e.logicCells != 0) {
        const double load =
            static_cast<double>(led.logicCells + d.logicCells);
        const double cap = static_cast<double>(e.logicCells);
        if (load > cap)
            over += (load - cap) / cap;
    }
    return over;
}

/** Overflow of the ledger as it stands. */
double
ledgerOverflow(const ExecutorModel &e, const ExecutorLedger &led)
{
    return overflowAfter(e, led, PlacementDemand{});
}

void
addDemand(ExecutorLedger &led, const PlacementDemand &d)
{
    led.cyclesPerSecond += d.cyclesPerSecond;
    led.ramBytes += d.ramBytes;
    led.wakeRateHz += d.wakeRateHz;
    led.logicCells += d.logicCells;
    led.dynamicPowerMw += d.dynamicPowerMw;
    led.conditions += 1;
}

void
removeDemand(ExecutorLedger &led, const PlacementDemand &d)
{
    led.cyclesPerSecond -= d.cyclesPerSecond;
    led.ramBytes -= d.ramBytes;
    led.wakeRateHz -= d.wakeRateHz;
    led.logicCells -= d.logicCells;
    led.dynamicPowerMw -= d.dynamicPowerMw;
    led.conditions -= 1;
}

} // namespace

ExecutorModel
mcuExecutor(const McuModel &mcu)
{
    ExecutorModel e;
    e.kind = ExecutorKind::Mcu;
    e.name = mcu.name;
    e.activePowerMw = mcu.activePowerMw;
    e.cyclesPerSecond = mcu.cyclesPerSecond;
    e.ramBytes = mcu.ramBytes;
    e.wakeBudgetHz = mcu.wakeBudgetHz;
    return e;
}

ExecutorModel
fpgaExecutor(const FpgaModel &fpga)
{
    ExecutorModel e;
    e.kind = ExecutorKind::Fpga;
    e.name = fpga.name;
    e.activePowerMw = fpga.staticPowerMw;
    e.logicCells = fpga.logicCells;
    e.nanojoulesPerCycleUnit = fpga.nanojoulesPerCycleUnit;
    return e;
}

ExecutorModel
apFallbackExecutor()
{
    ExecutorModel e;
    e.kind = ExecutorKind::ApFallback;
    e.name = "AP";
    // No hub: the AP duty-cycles to poll the sensor itself. Average
    // power from the paper's Table 1 Nexus 4 numbers — a 4 s awake
    // dwell plus one wake (384 mW x 1 s) and one sleep (341 mW x 1 s)
    // transition per minute, asleep (9.7 mW) the remaining 54 s:
    //   (4 x 323 + 384 + 341 + 54 x 9.7) / 60 = 42.3467 mW.
    e.activePowerMw = (4.0 * 323.0 + 384.0 + 341.0 + 54.0 * 9.7) / 60.0;
    return e;
}

const std::vector<ExecutorModel> &
platformExecutors()
{
    static const std::vector<ExecutorModel> executors = {
        mcuExecutor(msp430()),
        mcuExecutor(lm4f120()),
        fpgaExecutor(ice40Hub()),
        apFallbackExecutor(),
    };
    return executors;
}

const std::vector<ExecutorModel> &
mcuExecutors()
{
    static const std::vector<ExecutorModel> executors = [] {
        std::vector<ExecutorModel> ladder;
        for (const auto &mcu : availableMcus())
            ladder.push_back(mcuExecutor(mcu));
        return ladder;
    }();
    return executors;
}

std::string
executorSetSignature(const std::vector<ExecutorModel> &executors)
{
    std::ostringstream sig;
    for (const auto &e : executors)
        sig << kindLabel(e.kind) << ':' << e.name << '@'
            << e.activePowerMw << '/' << e.cyclesPerSecond << '/'
            << e.ramBytes << '/' << e.wakeBudgetHz << '/'
            << e.logicCells << '/' << e.nanojoulesPerCycleUnit << ';';
    return sig.str();
}

PlacementDemand
demandFor(std::span<const il::ExecutionPlan> plans,
          const ExecutorModel &executor, const il::ProgramCost &charged)
{
    PlacementDemand d;
    switch (executor.kind) {
      case ExecutorKind::Mcu:
        d.cyclesPerSecond = charged.cyclesPerSecond;
        d.ramBytes = charged.ramBytes;
        d.wakeRateHz = charged.wakeRateBoundHz;
        break;
      case ExecutorKind::Fpga:
        try {
            for (const il::ExecutionPlan &plan : plans)
                addFabricDemand(plan, executor.nanojoulesPerCycleUnit, d);
        } catch (const ConfigError &) {
            // An algorithm without a pre-compiled block cannot go on
            // the fabric at all.
            return PlacementDemand{};
        }
        d.wakeRateHz = charged.wakeRateBoundHz;
        break;
      case ExecutorKind::ApFallback:
        // The AP runs the condition in software at full rate; its
        // cost is the duty-cycling active power, not a capacity.
        d.feasible = true;
        return d;
    }
    d.feasible = overflowAfter(executor, ExecutorLedger{}, d) == 0.0;
    return d;
}

Placer::Placer(std::vector<ExecutorModel> executors_)
    : execs(std::move(executors_))
{
    if (execs.empty())
        throw ConfigError("placer needs at least one executor");
}

std::size_t
Placer::addCondition(const il::ExecutionPlan &plan)
{
    return addCondition(plan, plan.cost());
}

std::size_t
Placer::addCondition(const il::ExecutionPlan &plan,
                     const il::ProgramCost &charged)
{
    return addConditions({&plan, 1}, charged);
}

std::size_t
Placer::addConditions(std::span<const il::ExecutionPlan> plans,
                      const il::ProgramCost &charged)
{
    std::vector<PlacementDemand> row;
    row.reserve(execs.size());
    for (const auto &e : execs)
        row.push_back(demandFor(plans, e, charged));
    demands.push_back(std::move(row));
    return demands.size() - 1;
}

void
Placer::removeLast()
{
    if (demands.empty())
        throw ConfigError("placer has no condition to remove");
    demands.pop_back();
}

void
Placer::removeAt(std::size_t slot)
{
    if (slot >= demands.size())
        throw ConfigError("placer slot out of range");
    demands.erase(demands.begin() +
                  static_cast<std::ptrdiff_t>(slot));
}

const std::vector<PlacementDemand> &
Placer::demandRow(std::size_t slot) const
{
    return demands.at(slot);
}

PlacementResult
Placer::place() const
{
    const std::size_t C = demands.size();
    const std::size_t E = execs.size();

    PlacementResult out;
    out.decisions.resize(C);
    out.ledgers.assign(E, ExecutorLedger{});
    std::vector<int> assign(C, -1);
    std::vector<double> history(E, 0.0);
    auto &led = out.ledgers;

    // Cheapest feasible home for one condition under the current
    // ledgers: base cost (activation the condition would trigger plus
    // its dynamic power) + accumulated history cost + the present
    // overflow it would cause, scaled by penalty_mw. Ties break on a
    // fixed-seed hash, then the lower executor index — placement is
    // a pure function of (demands, executors).
    auto choose = [&](std::size_t c, double penalty_mw,
                      bool forbid_overflow, int banned) -> int {
        int best = -1;
        double best_cost = 0.0;
        std::uint64_t best_tie = 0;
        for (std::size_t e = 0; e < E; ++e) {
            const PlacementDemand &d = demands[c][e];
            if (!d.feasible || static_cast<int>(e) == banned)
                continue;
            const double over = overflowAfter(execs[e], led[e], d);
            if (forbid_overflow && over > 0.0)
                continue;
            const double activation =
                led[e].conditions == 0 ? execs[e].activePowerMw : 0.0;
            const double cost = activation + d.dynamicPowerMw +
                                history[e] + penalty_mw * over;
            const std::uint64_t tie = mixHash(
                kTieSeed ^ (c * 0x9e3779b97f4a7c15ULL) ^
                (e * 0xc2b2ae3d27d4eb4fULL));
            if (best < 0 || cost < best_cost ||
                (cost == best_cost &&
                 (tie < best_tie ||
                  (tie == best_tie && e < static_cast<std::size_t>(
                                              best))))) {
                best = static_cast<int>(e);
                best_cost = cost;
                best_tie = tie;
            }
        }
        return best;
    };

    // Initial placement: each condition takes its individually
    // cheapest home in stable order. Overflow is allowed (penalized,
    // not forbidden) — negotiation resolves it.
    for (std::size_t c = 0; c < C; ++c) {
        const int e = choose(c, kPresentPenaltyMw, false, -1);
        if (e >= 0) {
            assign[c] = e;
            addDemand(led[static_cast<std::size_t>(e)], demands[c][e]);
        }
    }

    // Negotiation: executors over capacity gain history cost, their
    // tenants are ripped up (stable order) and re-placed under a
    // present penalty that grows each round, so persistent contention
    // escalates until someone moves to a pricier-but-free home.
    for (std::size_t iter = 1; iter <= kMaxIterations; ++iter) {
        bool any_overflow = false;
        for (std::size_t e = 0; e < E; ++e) {
            const double over = ledgerOverflow(execs[e], led[e]);
            if (over > 0.0) {
                any_overflow = true;
                history[e] += kHistoryIncrementMw * (1.0 + over);
            }
        }
        if (!any_overflow) {
            out.converged = true;
            out.iterations = iter - 1;
            break;
        }

        std::vector<std::size_t> ripped;
        for (std::size_t c = 0; c < C; ++c) {
            const int e = assign[c];
            if (e < 0)
                continue;
            if (ledgerOverflow(execs[static_cast<std::size_t>(e)],
                               led[static_cast<std::size_t>(e)]) >
                0.0) {
                removeDemand(led[static_cast<std::size_t>(e)],
                             demands[c][static_cast<std::size_t>(e)]);
                assign[c] = -1;
                ripped.push_back(c);
            }
        }
        const double penalty =
            kPresentPenaltyMw * (1.0 + static_cast<double>(iter));
        for (std::size_t c : ripped) {
            const int e = choose(c, penalty, false, -1);
            if (e >= 0) {
                assign[c] = e;
                addDemand(led[static_cast<std::size_t>(e)],
                          demands[c][e]);
            }
            out.ripUps += 1;
        }
        out.iterations = iter;
    }

    // Final repair: if the iteration cap tripped with residual
    // overflow, evict newest-first from each overflowed executor onto
    // strictly non-overflowing homes (never back onto the executor
    // being repaired), or mark unplaced. Each condition moves at most
    // once here, so the pass terminates with every ledger sound.
    if (!out.converged) {
        bool clean = true;
        for (std::size_t e = 0; e < E; ++e) {
            while (ledgerOverflow(execs[e], led[e]) > 0.0) {
                clean = false;
                std::size_t victim = C;
                for (std::size_t c = C; c-- > 0;) {
                    if (assign[c] == static_cast<int>(e)) {
                        victim = c;
                        break;
                    }
                }
                if (victim == C)
                    break; // Capacity exceeded with no tenants left.
                removeDemand(led[e], demands[victim][e]);
                assign[victim] = -1;
                const int alt = choose(victim, 0.0, true,
                                       static_cast<int>(e));
                if (alt >= 0) {
                    assign[victim] = alt;
                    addDemand(led[static_cast<std::size_t>(alt)],
                              demands[victim][static_cast<std::size_t>(
                                  alt)]);
                }
                out.ripUps += 1;
            }
        }
        out.converged = clean;
    }

    for (std::size_t c = 0; c < C; ++c) {
        PlacementDecision &dec = out.decisions[c];
        const int e = assign[c];
        if (e < 0) {
            out.unplaced += 1;
            continue;
        }
        const auto eu = static_cast<std::size_t>(e);
        dec.executorIndex = e;
        dec.kind = execs[eu].kind;
        dec.executorName = execs[eu].name;
        dec.wireTarget = wireTargetFor(execs[eu]);
        dec.marginalPowerMw =
            demands[c][eu].dynamicPowerMw +
            (led[eu].conditions == 1 ? execs[eu].activePowerMw : 0.0);
    }
    for (std::size_t e = 0; e < E; ++e)
        if (led[e].conditions > 0)
            out.totalPowerMw +=
                execs[e].activePowerMw + led[e].dynamicPowerMw;
    return out;
}

PlacementResult
Placer::placeGreedy() const
{
    const std::size_t C = demands.size();
    const std::size_t E = execs.size();

    PlacementResult out;
    out.decisions.resize(C);
    out.ledgers.assign(E, ExecutorLedger{});
    out.converged = true;
    std::vector<int> assign(C, -1);
    auto &led = out.ledgers;

    for (std::size_t c = 0; c < C; ++c) {
        for (std::size_t e = 0; e < E; ++e) {
            const PlacementDemand &d = demands[c][e];
            if (!d.feasible ||
                overflowAfter(execs[e], led[e], d) > 0.0)
                continue;
            assign[c] = static_cast<int>(e);
            addDemand(led[e], d);
            break;
        }
        if (assign[c] < 0)
            out.unplaced += 1;
    }

    for (std::size_t c = 0; c < C; ++c) {
        const int e = assign[c];
        if (e < 0)
            continue;
        const auto eu = static_cast<std::size_t>(e);
        PlacementDecision &dec = out.decisions[c];
        dec.executorIndex = e;
        dec.kind = execs[eu].kind;
        dec.executorName = execs[eu].name;
        dec.wireTarget = wireTargetFor(execs[eu]);
        dec.marginalPowerMw =
            demands[c][eu].dynamicPowerMw +
            (led[eu].conditions == 1 ? execs[eu].activePowerMw : 0.0);
    }
    for (std::size_t e = 0; e < E; ++e)
        if (led[e].conditions > 0)
            out.totalPowerMw +=
                execs[e].activePowerMw + led[e].dynamicPowerMw;
    return out;
}

PlacementDecision
placeCondition(const il::ExecutionPlan &plan,
               const std::vector<ExecutorModel> &executors)
{
    Placer placer(executors);
    placer.addCondition(plan);
    PlacementResult result = placer.place();
    return std::move(result.decisions.front());
}

PlacementDecision
homeConditions(std::span<const il::ExecutionPlan> plans,
               const il::ProgramCost &charged,
               const std::vector<ExecutorModel> &executors)
{
    Placer placer(executors);
    placer.addConditions(plans, charged);
    PlacementResult result = placer.place();
    if (result.decisions.front().placed())
        return std::move(result.decisions.front());
    // One tenant on empty ledgers is unplaced only when every row is
    // infeasible, so each executor has a budget to name.
    std::ostringstream msg;
    msg << "no hub executor can home the "
        << (plans.size() == 1 ? "condition" : "conditions") << " (";
    for (std::size_t e = 0; e < executors.size(); ++e) {
        if (e != 0)
            msg << ", ";
        writeUnfit(msg, executors[e], placer.demandRow(0)[e]);
    }
    msg << ')';
    throw CapabilityError(msg.str());
}

il::Diagnostic
placementNote(const PlacementDecision &home)
{
    if (!home.placed())
        throw ConfigError(
            "placementNote needs a placed PlacementDecision");
    il::Diagnostic note;
    note.code = il::SW203_PLACEMENT;
    note.severity = il::Severity::Note;
    note.line = 1;
    note.column = 1;
    std::ostringstream msg;
    msg << "condition homed on " << home.executorName << " ["
        << kindLabel(home.kind) << "] at " << home.marginalPowerMw
        << " mW marginal";
    note.message = msg.str();
    note.hint = "config push wired to " + home.wireTarget;
    return note;
}

std::string
renderPlacementReport(const il::ExecutionPlan &plan,
                      const std::vector<ExecutorModel> &executors)
{
    Placer placer(executors);
    placer.addCondition(plan);
    const PlacementResult negotiated = placer.place();
    const PlacementResult greedy = placer.placeGreedy();

    std::ostringstream os;
    const PlacementDecision &home = negotiated.decisions.front();
    if (home.placed())
        os << "home: " << home.executorName << " via "
           << home.wireTarget << " (" << home.marginalPowerMw
           << " mW)\n";
    else
        os << "home: unplaced (no executor fits)\n";
    const PlacementDecision &ladder = greedy.decisions.front();
    if (ladder.placed())
        os << "greedy: " << ladder.executorName << " ("
           << ladder.marginalPowerMw << " mW)\n";
    else
        os << "greedy: unplaced\n";

    os << "executors:\n";
    const auto &row = placer.demandRow(0);
    for (std::size_t e = 0; e < executors.size(); ++e) {
        const ExecutorModel &x = executors[e];
        const PlacementDemand &d = row[e];
        os << "  ";
        if (!d.feasible) {
            writeUnfit(os, x, d);
            os << '\n';
            continue;
        }
        os << x.name << " [" << kindLabel(x.kind) << "] fit; ";
        switch (x.kind) {
          case ExecutorKind::Mcu:
            os << "demand " << d.cyclesPerSecond << " units/s, "
               << d.ramBytes << " B, " << d.wakeRateHz << " wake/s";
            break;
          case ExecutorKind::Fpga:
            os << "demand " << d.logicCells << " cells";
            break;
          case ExecutorKind::ApFallback:
            os << "duty-cycled poll";
            break;
        }
        os << "; power " << (x.activePowerMw + d.dynamicPowerMw)
           << " mW";
        if (home.placed() &&
            home.executorIndex == static_cast<int>(e))
            os << "  <- home";
        os << '\n';
    }
    return os.str();
}

} // namespace sidewinder::hub
