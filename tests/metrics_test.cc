/**
 * @file
 * Unit tests for detection matching and savings metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "metrics/events.h"
#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::metrics {
namespace {

using trace::GroundTruthEvent;

std::vector<GroundTruthEvent>
twoEvents()
{
    return {{"e", 1.0, 1.2}, {"e", 5.0, 5.2}};
}

TEST(Match, PerfectDetection)
{
    const auto r = matchEvents(twoEvents(), {1.1, 5.1}, 0.1);
    EXPECT_EQ(r.truePositives, 2u);
    EXPECT_EQ(r.falsePositives, 0u);
    EXPECT_EQ(r.falseNegatives, 0u);
    EXPECT_DOUBLE_EQ(r.recall(), 1.0);
    EXPECT_DOUBLE_EQ(r.precision(), 1.0);
}

TEST(Match, MissedEventCountsFalseNegative)
{
    const auto r = matchEvents(twoEvents(), {1.1}, 0.1);
    EXPECT_EQ(r.truePositives, 1u);
    EXPECT_EQ(r.falseNegatives, 1u);
    EXPECT_DOUBLE_EQ(r.recall(), 0.5);
}

TEST(Match, SpuriousDetectionCountsFalsePositive)
{
    const auto r = matchEvents(twoEvents(), {1.1, 3.0, 5.1}, 0.1);
    EXPECT_EQ(r.falsePositives, 1u);
    EXPECT_DOUBLE_EQ(r.precision(), 2.0 / 3.0);
}

TEST(Match, ToleranceWidensAcceptance)
{
    EXPECT_EQ(matchEvents(twoEvents(), {0.5}, 0.1).truePositives, 0u);
    EXPECT_EQ(matchEvents(twoEvents(), {0.5}, 0.6).truePositives, 1u);
}

TEST(Match, NegativeToleranceThrows)
{
    EXPECT_THROW(matchEvents(twoEvents(), {}, -1.0), ConfigError);
}

TEST(Match, DoubleCountingPenalizedUncoalesced)
{
    const auto r = matchEvents(twoEvents(), {1.05, 1.1, 5.1}, 0.1);
    EXPECT_EQ(r.truePositives, 2u);
    EXPECT_EQ(r.falsePositives, 1u);
}

TEST(Match, CoalescedIgnoresRepeatsInsideEvent)
{
    const auto r =
        matchEventsCoalesced(twoEvents(), {1.05, 1.1, 1.15, 5.1}, 0.1);
    EXPECT_EQ(r.truePositives, 2u);
    EXPECT_EQ(r.falsePositives, 0u);
}

TEST(Match, EmptyTruthAndDetections)
{
    const auto r = matchEvents({}, {}, 0.1);
    EXPECT_DOUBLE_EQ(r.recall(), 1.0);
    EXPECT_DOUBLE_EQ(r.precision(), 1.0);
}

TEST(Match, UnsortedDetectionsHandled)
{
    const auto r = matchEvents(twoEvents(), {5.1, 1.1}, 0.1);
    EXPECT_EQ(r.truePositives, 2u);
}

/**
 * The detections x events scan matching used before the sweep: for
 * each detection in time order, the lowest-index unmatched event
 * whose padded interval contains it, else any containing event (a
 * duplicate), else none. The oracle the sweep must agree with.
 */
MatchResult
scanOracle(const std::vector<GroundTruthEvent> &truth,
           std::vector<double> detections, double tolerance,
           bool coalesce)
{
    std::sort(detections.begin(), detections.end());
    std::vector<bool> matched(truth.size(), false);
    MatchResult result;
    for (double t : detections) {
        std::size_t found = truth.size();
        std::size_t found_unmatched = truth.size();
        for (std::size_t i = 0; i < truth.size(); ++i) {
            if (t >= truth[i].startTime - tolerance &&
                t <= truth[i].endTime + tolerance) {
                found = i;
                if (!matched[i]) {
                    found_unmatched = i;
                    break;
                }
            }
        }
        if (found_unmatched < truth.size()) {
            matched[found_unmatched] = true;
            ++result.truePositives;
        } else if (found < truth.size()) {
            if (!coalesce)
                ++result.falsePositives;
        } else {
            ++result.falsePositives;
        }
    }
    for (bool m : matched)
        if (!m)
            ++result.falseNegatives;
    return result;
}

/** A time on a coarse grid, so equal times and touching edges recur. */
double
gridTime(Rng &rng, double span)
{
    return 0.25 * static_cast<double>(rng.uniformInt(
                      0, static_cast<std::int64_t>(span * 4.0)));
}

TEST(Match, SweepAgreesWithScanOracle)
{
    // Random truth sets, overlapping and unsorted included, against
    // random detections: equal times, times on padded edges, zero
    // tolerance, and empty sides on either.
    Rng rng(2016);
    const std::string type = "e";
    for (int round = 0; round < 3000; ++round) {
        const double span = rng.uniform(1.0, 20.0);
        std::vector<GroundTruthEvent> truth(
            static_cast<std::size_t>(rng.uniformInt(0, 12)));
        for (auto &event : truth) {
            event.type = type;
            event.startTime = gridTime(rng, span);
            event.endTime =
                event.startTime + (rng.uniform(0.0, 1.0) < 0.2
                                       ? 0.0
                                       : gridTime(rng, 3.0));
        }
        if (rng.uniform(0.0, 1.0) < 0.5)
            std::sort(truth.begin(), truth.end(),
                      [](const GroundTruthEvent &a,
                         const GroundTruthEvent &b) {
                          return a.startTime < b.startTime;
                      });
        std::vector<double> detections(
            static_cast<std::size_t>(rng.uniformInt(0, 16)));
        for (double &t : detections)
            t = rng.uniform(0.0, 1.0) < 0.5 ? gridTime(rng, span)
                                            : rng.uniform(-1.0, span + 1.0);
        const double tolerance =
            rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : gridTime(rng, 1.0);

        for (bool coalesce : {false, true}) {
            const MatchResult want =
                scanOracle(truth, detections, tolerance, coalesce);
            const MatchResult got =
                coalesce
                    ? matchEventsCoalesced(truth, detections, tolerance)
                    : matchEvents(truth, detections, tolerance);
            ASSERT_EQ(got.truePositives, want.truePositives)
                << "round " << round << (coalesce ? " coalesced" : "");
            ASSERT_EQ(got.falsePositives, want.falsePositives)
                << "round " << round << (coalesce ? " coalesced" : "");
            ASSERT_EQ(got.falseNegatives, want.falseNegatives)
                << "round " << round << (coalesce ? " coalesced" : "");
        }
    }
}

TEST(Match, LowestIndexUnmatchedEventWins)
{
    // Event 1 starts first but event 0 has the lower index: the first
    // detection in both takes event 0, the second takes event 1.
    const std::vector<GroundTruthEvent> truth = {{"e", 2.0, 4.0},
                                                 {"e", 1.0, 5.0}};
    const auto r = matchEvents(truth, {3.0, 3.0}, 0.0);
    EXPECT_EQ(r.truePositives, 2u);
    EXPECT_EQ(r.falsePositives, 0u);
    // Past event 0's end only event 1 is left: a detection inside
    // matched events only is a false positive unless coalescing.
    const auto dup = matchEvents(truth, {3.0, 3.0, 4.5}, 0.0);
    EXPECT_EQ(dup.truePositives, 2u);
    EXPECT_EQ(dup.falsePositives, 1u);
    EXPECT_EQ(matchEventsCoalesced(truth, {3.0, 3.0, 4.5}, 0.0)
                  .falsePositives,
              0u);
}

TEST(Savings, PaperFormula)
{
    // (AA - X) / (AA - Oracle), Section 5.2.
    EXPECT_DOUBLE_EQ(savingsFraction(323.0, 323.0, 16.8), 0.0);
    EXPECT_DOUBLE_EQ(savingsFraction(323.0, 16.8, 16.8), 1.0);
    EXPECT_NEAR(savingsFraction(323.0, 47.4, 16.8), 0.9, 1e-3);
}

TEST(Savings, DegenerateDenominator)
{
    EXPECT_DOUBLE_EQ(savingsFraction(100.0, 50.0, 100.0), 0.0);
}

} // namespace
} // namespace sidewinder::metrics
