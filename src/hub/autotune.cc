#include "hub/autotune.h"

#include <algorithm>

#include "il/lower.h"
#include "support/error.h"

namespace sidewinder::hub {

namespace {

bool
isTunable(const il::Statement &stmt)
{
    return stmt.algorithm == "minThreshold" ||
           stmt.algorithm == "maxThreshold" ||
           stmt.algorithm == "bandThreshold" ||
           stmt.algorithm == "outsideBandThreshold" ||
           stmt.algorithm == "localMaxima" ||
           stmt.algorithm == "localMinima";
}

/** Re-parameterize @p stmt to strictness @p scale (1 = original). */
void
rescale(il::Statement &stmt, const il::Statement &original,
        double scale)
{
    if (stmt.algorithm == "minThreshold") {
        // Stricter = higher floor.
        stmt.params[0] = original.params[0] * scale;
    } else if (stmt.algorithm == "maxThreshold") {
        // Stricter = lower ceiling.
        stmt.params[0] = original.params[0] / scale;
    } else if (stmt.algorithm == "bandThreshold" ||
               stmt.algorithm == "localMaxima" ||
               stmt.algorithm == "localMinima") {
        // Stricter = narrower band around the original center.
        const double center =
            0.5 * (original.params[0] + original.params[1]);
        const double half =
            0.5 * (original.params[1] - original.params[0]) / scale;
        stmt.params[0] = center - half;
        stmt.params[1] = center + half;
    } else if (stmt.algorithm == "outsideBandThreshold") {
        // Stricter = wider excluded band.
        const double center =
            0.5 * (original.params[0] + original.params[1]);
        const double half =
            0.5 * (original.params[1] - original.params[0]) * scale;
        stmt.params[0] = center - half;
        stmt.params[1] = center + half;
    }
}

} // namespace

ThresholdAutoTuner::ThresholdAutoTuner(Engine &engine, int condition_id,
                                       il::Program program,
                                       AutoTuneConfig config)
    : engine(engine), conditionId(condition_id),
      original(std::move(program)), current(original), config(config)
{
    bool found = false;
    for (std::size_t i = 0; i < original.statements.size(); ++i) {
        if (isTunable(original.statements[i])) {
            tunableIndex = i;
            found = true;
        }
    }
    if (!found)
        throw ConfigError(
            "auto-tuning needs a threshold-family stage");

    engine.addCondition(conditionId,
                        il::lower(current, engine.channels(),
                                  engine.lowerOptions()));
}

void
ThresholdAutoTuner::applyScale(double new_scale)
{
    new_scale = std::clamp(new_scale, config.minScale, config.maxScale);
    if (new_scale == scale)
        return;
    scale = new_scale;

    current = original;
    rescale(current.statements[tunableIndex],
            original.statements[tunableIndex], scale);

    // Lower before retiring the live copy: if lowering throws, the
    // live copy keeps running.
    const il::ExecutionPlan plan =
        il::lower(current, engine.channels(), engine.lowerOptions());
    engine.removeCondition(conditionId);
    engine.addCondition(conditionId, plan);
    ++retunes;
}

void
ThresholdAutoTuner::reportFalsePositive()
{
    tpSinceRelax = 0;
    if (++fpStreak >= config.falsePositiveStreak) {
        fpStreak = 0;
        applyScale(scale * config.tightenFactor);
    }
}

void
ThresholdAutoTuner::reportTruePositive()
{
    fpStreak = 0;
    if (++tpSinceRelax >= config.relaxAfterTruePositives) {
        tpSinceRelax = 0;
        applyScale(scale * config.relaxFactor);
    }
}

} // namespace sidewinder::hub
