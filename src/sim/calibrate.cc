#include "sim/calibrate.h"

#include <algorithm>

#include "support/error.h"

namespace sidewinder::sim {

CalibrationResult
calibratePredefinedThreshold(const std::vector<trace::Trace> &traces,
                             const apps::Application &app,
                             std::vector<double> candidates,
                             SimConfig base)
{
    if (traces.empty())
        throw ConfigError("calibration needs at least one trace");
    if (candidates.empty())
        throw ConfigError("calibration needs candidate thresholds");

    std::sort(candidates.begin(), candidates.end(),
              std::greater<double>());

    base.strategy = Strategy::PredefinedActivity;

    // Run PA at @p threshold on every trace into `out`; with
    // @p stop_on_miss, stop at the first trace that loses an event.
    CalibrationResult out;
    auto run_threshold = [&](double threshold, bool stop_on_miss) {
        base.predefinedThreshold = threshold;
        out.threshold = threshold;
        out.results.clear();
        double power_sum = 0.0;
        for (const auto &trace : traces) {
            out.results.push_back(simulate(trace, app, base));
            power_sum += out.results.back().averagePowerMw;
            if (stop_on_miss && out.results.back().recall < 1.0)
                return false;
        }
        out.averagePowerMw =
            power_sum / static_cast<double>(traces.size());
        return true;
    };

    for (double threshold : candidates) {
        if (run_threshold(threshold, true)) {
            out.achievedFullRecall = true;
            return out;
        }
    }

    // Even the most sensitive candidate misses events; report it.
    run_threshold(candidates.back(), false);
    return out;
}

} // namespace sidewinder::sim
