#include "il/analyze_range.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <numbers>
#include <sstream>

#include "il/ast.h"

namespace sidewinder::il {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Closed Q15-safe region for a quantize point. toQ15 counts a
 * saturation event only when the ideal value overshoots the grid by
 * more than one count (|x| >= 1 + 1.5 * 2^-16), so proving |x| <= 1
 * proves zero events with built-in slack for the half-count rounding.
 */
constexpr double kQ15QuantizeSafeAbs = 1.0;

/**
 * Headroom required of fixed-point FFT/inverse-transform internals.
 * The twiddle factors are quantized (|w| <= 1 + 2^-14) and every
 * butterfly injects up to half a count of rounding per stage, so the
 * exact mathematical bound can drift by O(1e-3) relative. A 1% proof
 * margin absorbs all of it with two orders of magnitude to spare.
 */
constexpr double kQ15InternalSafeAbs = 0.99;

} // namespace

// ---------------------------------------------------------------------
// Interval arithmetic.

double
Interval::maxAbs() const
{
    if (isEmpty())
        return 0.0;
    return std::max(std::fabs(lo), std::fabs(hi));
}

double
Interval::width() const
{
    if (isEmpty())
        return 0.0;
    return hi - lo;
}

Interval
Interval::hull(const Interval &other) const
{
    if (isEmpty())
        return other;
    if (other.isEmpty())
        return *this;
    return Interval{std::min(lo, other.lo), std::max(hi, other.hi)};
}

Interval
Interval::intersect(const Interval &other) const
{
    if (isEmpty() || other.isEmpty())
        return empty();
    const Interval out{std::max(lo, other.lo), std::min(hi, other.hi)};
    return out.lo > out.hi ? empty() : out;
}

// ---------------------------------------------------------------------
// Channel defaults.

std::vector<ChannelRange>
defaultChannelRanges(const std::vector<ChannelInfo> &channels)
{
    std::vector<ChannelRange> out;
    out.reserve(channels.size());
    for (const ChannelInfo &ch : channels) {
        ChannelRange r;
        r.channel = ch.name;
        if (ch.name.rfind("AUDIO", 0) == 0) {
            // Normalized microphone samples.
            r.lo = -1.0;
            r.hi = 1.0;
        } else if (ch.name.rfind("ACC", 0) == 0) {
            // +/-4 g MEMS accelerometer including gravity, m/s^2.
            r.lo = -40.0;
            r.hi = 40.0;
        } else if (ch.name.rfind("BARO", 0) == 0) {
            // Full span of a Bosch-class barometer, hPa.
            r.lo = 300.0;
            r.hi = 1100.0;
        } else {
            // Unknown sensor: deliberately huge so proofs stay sound;
            // declare a real range to get useful verdicts.
            r.lo = -1e6;
            r.hi = 1e6;
        }
        out.push_back(std::move(r));
    }
    return out;
}

namespace {

// ---------------------------------------------------------------------
// Transfer-function helpers.

/** Facts about one resolved input edge of a node. */
struct EdgeFacts
{
    Interval value;
    double magnitudeBound = 0.0;
    double q15Scale = 1.0;
    double rateHz = 0.0;
    bool reachable = true;
    bool alwaysEmits = true;
    std::size_t frameSize = 0;
    double baseRateHz = 0.0;
};

/** Interval times a coefficient range [cmin, cmax] with cmin >= 0. */
Interval
scaleByCoefRange(const Interval &in, double cmin, double cmax)
{
    if (in.isEmpty())
        return Interval::empty();
    const double candidates[4] = {in.lo * cmin, in.lo * cmax,
                                  in.hi * cmin, in.hi * cmax};
    return Interval{*std::min_element(candidates, candidates + 4),
                    *std::max_element(candidates, candidates + 4)};
}

/**
 * Kept-bin census of the FFT block filter: the exact keep rule of
 * hub's BlockFilterKernel / dsp::FftBlockFilter (bin i of an n-point
 * transform keeps when i * rate / n is on the pass side of the
 * cutoff, mirrors follow their primary). Returns the kept indices in
 * 0..n/2 plus the total kept count including mirrors.
 */
struct KeptBins
{
    /** Band of kept primary bins [first, last] in 0..n/2; empty when
        first > last. */
    long first = 1;
    long last = 0;
    /** Total kept bins including the mirrored half. */
    std::size_t total = 0;
};

KeptBins
keptBinsOf(bool low_pass, double cutoff_hz, std::size_t n,
           double base_rate_hz)
{
    KeptBins kept;
    if (n == 0 || base_rate_hz <= 0.0)
        return kept;
    const long half = static_cast<long>(n / 2);
    kept.first = half + 1;
    kept.last = -1;
    for (long i = 0; i <= half; ++i) {
        // Same expression as dsp::binFrequencyHz so the boundary bin
        // lands on the same side as the kernel.
        const double freq = static_cast<double>(i) * base_rate_hz /
                            static_cast<double>(n);
        const bool keep = low_pass ? freq <= cutoff_hz
                                   : freq >= cutoff_hz;
        if (!keep)
            continue;
        kept.first = std::min(kept.first, i);
        kept.last = std::max(kept.last, i);
        ++kept.total;
        // Mirror bin n - i carries the same fate; 0 and n/2 are their
        // own mirrors.
        if (i != 0 && i != half)
            ++kept.total;
    }
    if (kept.first > kept.last)
        kept.total = 0;
    return kept;
}

/**
 * Worst-case amplitude gain of the brickwall filter keeping @p kept:
 * the l1 norm of its impulse response. h[m] is the Dirichlet-style
 * sum over the kept bins, evaluated in closed form per tap (O(n)
 * total instead of O(n^2)):
 *
 *   h[m] = (1/n) [ keep0 + keepHalf (-1)^m
 *                  + 2 sum_{k=a}^{b} cos(2 pi k m / n) ]
 *
 * with sum_{k=a}^{b} cos(k t) = [sin((b+1/2)t) - sin((a-1/2)t)]
 *                               / (2 sin(t/2)).
 */
double
filterL1Gain(const KeptBins &kept, std::size_t n)
{
    if (kept.total == 0 || n == 0)
        return 0.0;
    if (kept.total == n)
        return 1.0; // All-pass: h = delta.
    const long half = static_cast<long>(n / 2);
    const bool keep0 = kept.first == 0;
    const bool keep_half = kept.last == half;
    // Interior kept band within 1..n/2-1.
    const long a = std::max(kept.first, 1L);
    const long b = std::min(kept.last, half - 1);
    double gain = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
        double h = 0.0;
        if (keep0)
            h += 1.0;
        if (keep_half)
            h += (m % 2 == 0) ? 1.0 : -1.0;
        if (a <= b) {
            const double t = 2.0 * std::numbers::pi *
                             static_cast<double>(m) /
                             static_cast<double>(n);
            const double s = std::sin(t / 2.0);
            if (std::fabs(s) < 1e-12) {
                h += 2.0 * static_cast<double>(b - a + 1);
            } else {
                const double num =
                    std::sin((static_cast<double>(b) + 0.5) * t) -
                    std::sin((static_cast<double>(a) - 0.5) * t);
                h += num / s;
            }
        }
        gain += std::fabs(h) / static_cast<double>(n);
    }
    return gain;
}

/** Smallest k with bound * 2^-k <= limit; 0 when no finite k helps. */
int
shiftFor(double bound, double limit)
{
    if (!std::isfinite(bound) || bound <= 0.0 || limit <= 0.0)
        return 0;
    int k = static_cast<int>(std::ceil(std::log2(bound / limit)));
    return std::max(k, 1);
}

/** Format a double the way the golden corpus pins it. */
std::string
fmt(double v)
{
    if (v == kInf)
        return "inf";
    if (v == -kInf)
        return "-inf";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
fmtInterval(const Interval &iv)
{
    if (iv.isEmpty())
        return "(empty)";
    std::string out = "[";
    out += fmt(iv.lo);
    out += ", ";
    out += fmt(iv.hi);
    out += "]";
    return out;
}

/** True for the conditional threshold/peak family. */
bool
isThresholdFamily(const std::string &alg)
{
    return alg == "minThreshold" || alg == "maxThreshold" ||
           alg == "bandThreshold" || alg == "outsideBandThreshold" ||
           alg == "localMaxima" || alg == "localMinima";
}

/** The admit set of a threshold algorithm as an interval query. */
Interval
thresholdAdmit(const std::string &alg, const std::vector<double> &p,
               const Interval &in)
{
    if (in.isEmpty())
        return Interval::empty();
    if (alg == "minThreshold")
        return in.intersect(Interval::of(p[0], kInf));
    if (alg == "maxThreshold")
        return in.intersect(Interval::of(-kInf, p[0]));
    if (alg == "bandThreshold")
        return in.intersect(Interval::of(p[0], p[1]));
    // outsideBand: pass x < low or x > high — the hull of the two
    // admitted pieces (a disjunction the domain cannot represent).
    const Interval left = in.intersect(Interval::of(-kInf, p[0]));
    const Interval right = in.intersect(Interval::of(p[1], kInf));
    return left.hull(right);
}

/** Whether a Q15 threshold kernel quantizes (limits on the grid). */
bool
thresholdUsesQ15(const std::string &alg, const std::vector<double> &p)
{
    const auto fits = [](double v) { return v >= -1.0 && v < 1.0; };
    if (alg == "minThreshold" || alg == "maxThreshold")
        return fits(p[0]);
    return fits(p[0]) && fits(p[1]);
}

/** Per-node scratch for the Q15 proof obligations. */
struct Q15Check
{
    bool quantizes = false;
    bool safe = true;
    int shift = 0;
    std::string detail;

    /**
     * Require |bound| <= limit for a quantize point or internal
     * fixed-point stage; records the failure and the pre-scaling
     * shift that would discharge it.
     */
    void
    require(double bound, double limit, const std::string &what)
    {
        if (bound <= limit)
            return;
        safe = false;
        shift = std::max(shift, shiftFor(bound, limit));
        if (detail.empty())
            detail = what + " reaches |" + fmt(bound) + "| > " +
                     fmt(limit);
    }

    /** A plain quantize point: input values times the edge scale. */
    void
    quantize(const Interval &iv, double scale, const std::string &what)
    {
        quantizes = true;
        require(iv.maxAbs() * std::fabs(scale), kQ15QuantizeSafeAbs,
                what);
    }
};

} // namespace

// ---------------------------------------------------------------------
// The interpreter.

RangeAnalysis
analyzeRanges(const ExecutionPlan &plan, const RangeOptions &options)
{
    RangeAnalysis out;
    const std::size_t n = plan.nodeCount();
    out.nodes.resize(n);

    // Resolve declared channel ranges over the per-type defaults.
    out.channelRanges = defaultChannelRanges(plan.channels);
    for (const ChannelRange &declared : options.channelRanges)
        for (ChannelRange &resolved : out.channelRanges)
            if (resolved.channel == declared.channel) {
                resolved.lo = declared.lo;
                resolved.hi = declared.hi;
            }

    bool has_threshold = false;
    std::vector<std::string> q15_details(n);

    for (std::size_t i = 0; i < n; ++i) {
        const std::string &alg = plan.algorithms[i];
        const std::vector<double> &p = plan.params[i];
        const NodeStream &stream = plan.streams[i];
        NodeRange &r = out.nodes[i];
        if (isThresholdFamily(alg))
            has_threshold = true;

        // Gather facts of every input edge.
        std::vector<EdgeFacts> in;
        in.reserve(plan.inputCounts[i]);
        const std::int32_t *refs = plan.inputsOf(i);
        for (std::uint32_t k = 0; k < plan.inputCounts[i]; ++k) {
            EdgeFacts e;
            const std::int32_t ref = refs[k];
            if (ref < 0) {
                const auto ch = static_cast<std::size_t>(-(ref + 1));
                const ChannelRange &range = out.channelRanges[ch];
                e.value = Interval::of(range.lo, range.hi);
                e.rateHz = plan.channels[ch].sampleRateHz;
                e.baseRateHz = e.rateHz;
            } else {
                const auto src = static_cast<std::size_t>(ref);
                const NodeRange &sr = out.nodes[src];
                const NodeStream &ss = plan.streams[src];
                e.value = sr.value;
                e.magnitudeBound = sr.magnitudeBound;
                e.q15Scale = sr.q15Scale;
                e.rateHz = sr.provenRateHz;
                e.reachable = sr.reachable;
                e.alwaysEmits = sr.alwaysEmits;
                e.frameSize = ss.frameSize;
                e.baseRateHz = ss.baseRateHz;
            }
            in.push_back(e);
        }

        // Reachability, always-fires, and the base emission rate.
        // "or" fires when any input does; everything else needs all.
        if (alg == "or") {
            r.reachable = false;
            r.alwaysEmits = false;
            double sum = 0.0;
            for (const EdgeFacts &e : in) {
                r.reachable = r.reachable || e.reachable;
                r.alwaysEmits = r.alwaysEmits || e.alwaysEmits;
                sum += e.rateHz;
            }
            r.provenRateHz = sum;
        } else {
            double rate = in.empty() ? 0.0 : kInf;
            for (const EdgeFacts &e : in) {
                r.reachable = r.reachable && e.reachable;
                r.alwaysEmits = r.alwaysEmits && e.alwaysEmits;
                rate = std::min(rate, e.rateHz);
            }
            r.provenRateHz = rate;
        }

        const Interval iv0 = in.empty() ? Interval::empty()
                                        : in[0].value;
        const double m0 = iv0.maxAbs();
        const double s0 = in.empty() ? 1.0 : in[0].q15Scale;
        const auto frame_n = in.empty()
                                 ? std::size_t{0}
                                 : in[0].frameSize;
        Q15Check q15;
        // The Q15 edge scale passes through by default; the FFT
        // family and scale-invariant features override below.
        r.q15Scale = s0;

        // --- transfer functions -----------------------------------
        if (alg == "movingAvg" || alg == "expMovingAvg") {
            // Convex combinations of inputs: the feedback fixpoint is
            // the input hull (the widening rule).
            r.value = iv0;
            q15.quantize(iv0, s0, "input sample");
        } else if (alg == "window") {
            const bool hamming = p.size() >= 2 && p[1] != 0.0;
            const std::size_t size = static_cast<std::size_t>(p[0]);
            const std::size_t hop =
                p.size() >= 3 ? static_cast<std::size_t>(p[2]) : size;
            // Hamming coefficients over [0, size): min at the edges
            // (0.08), max 1.0 at the center (exactly 1.0 only for
            // odd sizes, but 1.0 is always a sound cap).
            const double cmin = hamming && size > 1 ? 0.08 : 1.0;
            const double cmax = 1.0;
            r.value = scaleByCoefRange(iv0, cmin, cmax);
            if (hop > 0)
                r.provenRateHz =
                    std::min(r.provenRateHz,
                             in.empty() ? 0.0
                                        : in[0].rateHz /
                                              static_cast<double>(hop));
            q15.quantize(iv0, s0, "input sample");
        } else if (alg == "fft") {
            // |X(k)| <= sum |x| <= N * max|x| (unscaled double FFT).
            const double b =
                static_cast<double>(frame_n) * m0;
            r.value = Interval::of(-b, b);
            r.magnitudeBound = b;
            r.q15Scale =
                frame_n > 0 ? s0 / static_cast<double>(frame_n) : s0;
            q15.quantize(iv0, s0, "input frame");
            // Butterfly headroom: per-stage halving keeps magnitudes
            // at the input bound, so full-scale inputs sit exactly on
            // the grid edge where twiddle rounding can tip over.
            q15.require(m0 * std::fabs(s0), kQ15InternalSafeAbs,
                        "fixed-point FFT butterfly");
        } else if (alg == "ifft") {
            // Unscaled-spectrum inverse: |x_m| <= (1/N) sum |X_k|
            //                                  <= max_k |X_k|.
            const double b = in.empty() ? 0.0 : in[0].magnitudeBound;
            r.value = Interval::of(-b, b);
            q15.quantize(iv0, s0, "input bin");
            // The fixed-point inverse applies no scaling: internal
            // sub-DFT partial sums reach the full l1 norm of the
            // quantized bins.
            const double per_bin =
                std::min(b * std::fabs(s0), std::sqrt(2.0));
            q15.require(static_cast<double>(frame_n) * per_bin,
                        kQ15InternalSafeAbs,
                        "unscaled fixed-point inverse FFT");
            r.q15Scale = s0 * static_cast<double>(frame_n);
        } else if (alg == "spectrum") {
            const double b = in.empty() ? 0.0 : in[0].magnitudeBound;
            r.value = Interval::of(0.0, b);
            // The Q15 spectrum kernel multiplies magnitudes by N to
            // undo the fixed-point forward scaling.
            r.q15Scale = s0 * static_cast<double>(frame_n);
        } else if (alg == "lowPass" || alg == "highPass") {
            const bool low = alg == "lowPass";
            const double base =
                in.empty() ? 0.0 : in[0].baseRateHz;
            const KeptBins kept =
                keptBinsOf(low, p.empty() ? 0.0 : p[0], frame_n, base);
            const double gain = filterL1Gain(kept, frame_n);
            const double b = gain * m0;
            r.value = Interval::of(-b, b);
            q15.quantize(iv0, s0, "input frame");
            // Forward scales to X/N; Parseval + Cauchy-Schwarz bound
            // the l1 norm over the kept bins — which also bounds
            // every partial sum inside the unscaled inverse.
            q15.require(std::sqrt(static_cast<double>(kept.total)) *
                            m0 * std::fabs(s0),
                        kQ15InternalSafeAbs,
                        "block-filter inverse transform");
        } else if (alg == "goertzel") {
            r.value =
                Interval::of(0.0, static_cast<double>(frame_n) * m0);
            q15.quantize(iv0, s0, "input frame");
        } else if (alg == "goertzelRel") {
            // Cauchy-Schwarz: |X(k)| <= sqrt(N * energy); the
            // normalizing tone peak is sqrt(N * energy / 2).
            r.value = Interval::of(0.0, std::sqrt(2.0));
            q15.quantize(iv0, s0, "input frame");
            r.q15Scale = 1.0; // Scale-invariant ratio.
        } else if (alg == "vectorMagnitude") {
            double sum_sq = 0.0;
            for (const EdgeFacts &e : in) {
                const double m = e.value.maxAbs();
                sum_sq += m * m;
                q15.quantize(e.value, e.q15Scale, "input sample");
            }
            r.value = Interval::of(0.0, std::sqrt(sum_sq));
        } else if (alg == "zcr") {
            r.value = Interval::of(0.0, 1.0);
            q15.quantize(iv0, s0, "input frame");
            r.q15Scale = 1.0; // Sign pattern only.
        } else if (alg == "mean" || alg == "min" || alg == "max") {
            r.value = iv0;
            q15.quantize(iv0, s0, "input frame");
        } else if (alg == "variance") {
            const double w = iv0.width();
            r.value = Interval::of(0.0, w * w / 4.0);
            q15.quantize(iv0, s0, "input frame");
            r.q15Scale = s0 * s0; // Second moment.
        } else if (alg == "stddev") {
            r.value = Interval::of(0.0, iv0.width() / 2.0);
            q15.quantize(iv0, s0, "input frame");
        } else if (alg == "rms") {
            r.value = Interval::of(0.0, m0);
            q15.quantize(iv0, s0, "input frame");
        } else if (alg == "range") {
            r.value = Interval::of(0.0, iv0.width());
            q15.quantize(iv0, s0, "input frame");
        } else if (alg == "dominantFreqHz") {
            r.value = Interval::of(0.0, stream.baseRateHz / 2.0);
            r.q15Scale = 1.0; // Hz, not sample units.
        } else if (alg == "dominantFreqMag") {
            r.value = Interval::of(0.0, std::max(iv0.hi, 0.0));
        } else if (alg == "peakToMeanRatio") {
            if (!iv0.isEmpty() && iv0.lo >= 0.0 && frame_n >= 2)
                r.value = Interval::of(
                    0.0, static_cast<double>(frame_n - 1));
            else
                r.value = Interval::of(0.0, kInf);
            r.q15Scale = 1.0; // Scale-invariant ratio.
        } else if (alg == "minThreshold" || alg == "maxThreshold" ||
                   alg == "bandThreshold" ||
                   alg == "outsideBandThreshold") {
            r.value = thresholdAdmit(alg, p, iv0);
            if (r.value.isEmpty())
                r.reachable = false;
            // Always-pass must be *proven*: the admit set has to
            // contain the whole input interval. For outsideBand that
            // means the forbidden band never intersects the input.
            if (alg == "outsideBandThreshold") {
                if (iv0.isEmpty() ||
                    !iv0.intersect(Interval::of(p[0], p[1]))
                         .isEmpty())
                    r.alwaysEmits = false;
            } else if (r.value.isEmpty() || iv0.isEmpty() ||
                       r.value.lo > iv0.lo || r.value.hi < iv0.hi) {
                r.alwaysEmits = false;
            }
            if (thresholdUsesQ15(alg, p))
                q15.quantize(iv0, s0, "input value");
        } else if (alg == "localMaxima" || alg == "localMinima") {
            r.value = iv0.intersect(Interval::of(p[0], p[1]));
            if (r.value.isEmpty())
                r.reachable = false;
            // A peak needs a rise and a fall: two samples minimum per
            // emission, more under an explicit refractory.
            const double divisor = std::max(
                2.0,
                p.size() >= 3 ? p[2] + 1.0 : 1.0);
            r.provenRateHz /= divisor;
            r.alwaysEmits = false;
        } else if (alg == "and") {
            r.value = iv0; // Forwards its first input.
        } else if (alg == "or") {
            Interval hull = Interval::empty();
            for (const EdgeFacts &e : in)
                if (e.reachable)
                    hull = hull.hull(e.value);
            r.value = hull;
        } else if (alg == "consecutive") {
            r.value = iv0; // Forwards the input value.
            const double required = p.empty() ? 1.0 : p[0];
            if (required > 1.0)
                r.provenRateHz /= required;
        } else {
            // Unknown algorithm (should not lower): unbounded.
            r.value = Interval::of(-kInf, kInf);
        }

        if (!r.reachable) {
            r.value = Interval::empty();
            r.provenRateHz = 0.0;
            r.alwaysEmits = false;
        }
        // The syntactic firing rate is always an upper bound.
        if (stream.fireRateHz > 0.0)
            r.provenRateHz = std::min(r.provenRateHz,
                                      stream.fireRateHz);

        r.quantizes = q15.quantizes;
        r.q15Safe = q15.safe;
        r.recommendedShift = q15.safe ? 0 : q15.shift;
        q15_details[i] = q15.detail;
        if (!q15.safe)
            out.q15Provable = false;
    }

    // --- program-level verdicts and diagnostics -------------------
    const auto source_of = [&](std::size_t node) {
        return node < plan.sourceIds.size() ? plan.sourceIds[node]
                                            : NodeId{0};
    };
    const auto emit = [&](const char *code, Severity severity,
                          NodeId node, std::string message,
                          std::string hint) {
        Diagnostic d;
        d.code = code;
        d.severity = severity;
        d.node = node;
        d.message = std::move(message);
        d.hint = std::move(hint);
        out.diagnostics.push_back(std::move(d));
    };

    for (std::size_t i = 0; i < n; ++i) {
        const NodeRange &r = out.nodes[i];
        if (r.q15Safe)
            continue;
        emit(SW301_Q15_SATURATION,
             options.q15 ? Severity::Error : Severity::Warning,
             source_of(i),
             plan.algorithms[i] + " cannot be proven Q15-safe: " +
                 q15_details[i],
             "declare tighter channel ranges or pre-scale the input");
        if (r.recommendedShift > 0)
            emit(SW302_Q15_PRESCALE, Severity::Note, source_of(i),
                 "pre-scaling this node's input by 2^-" +
                     std::to_string(r.recommendedShift) +
                     " makes it provably Q15-safe",
                 "insert a gain of " +
                     fmt(std::ldexp(1.0, -r.recommendedShift)) +
                     " upstream or declare the range that justifies "
                     "it");
    }

    if (plan.outNode >= 0 &&
        static_cast<std::size_t>(plan.outNode) < n) {
        const NodeRange &wake =
            out.nodes[static_cast<std::size_t>(plan.outNode)];
        out.wakeReachable = wake.reachable;
        out.provenWakeRateHz =
            std::min(wake.provenRateHz, plan.wakeRateBoundHz);
        const NodeId wake_node =
            source_of(static_cast<std::size_t>(plan.outNode));
        if (!wake.reachable) {
            out.provenWakeRateHz = 0.0;
            emit(SW310_DEAD_WAKE, Severity::Warning, wake_node,
                 "wake condition provably never fires: no value in "
                 "the declared input ranges reaches OUT",
                 "loosen the dead threshold or fix the declared "
                 "channel ranges");
        } else if (wake.alwaysEmits && has_threshold) {
            out.wakeAlwaysFires = true;
            emit(SW311_ALWAYS_WAKE, Severity::Warning, wake_node,
                 "wake condition provably always fires: every "
                 "threshold admits the full input range, so OUT "
                 "wakes at its nominal " +
                     fmt(out.provenWakeRateHz) + " Hz",
                 "tighten the thresholds so the condition is "
                 "selective");
        }
        if (out.wakeReachable &&
            out.provenWakeRateHz < plan.wakeRateBoundHz * 0.999) {
            emit(SW312_PROVEN_WAKE_RATE, Severity::Note, wake_node,
                 "proven wake-rate bound " +
                     fmt(out.provenWakeRateHz) +
                     " Hz is tighter than the syntactic " +
                     fmt(plan.wakeRateBoundHz) +
                     " Hz; admission charges the proven bound",
                 "");
        }
    } else {
        out.wakeReachable = false;
        out.provenWakeRateHz = 0.0;
    }

    return out;
}

RangeAnalysis
analyzeProgramRanges(const Program &program, const ExecutionPlan &plan,
                     const RangeOptions &options)
{
    RangeAnalysis analysis = analyzeRanges(plan, options);
    // Rewrite plan-level diagnostics to statement spans.
    std::map<NodeId, SourceSpan> spans;
    for (std::size_t i = 0; i < program.statements.size(); ++i)
        spans[program.statements[i].id] =
            statementSpan(program.statements[i], i);
    for (Diagnostic &d : analysis.diagnostics) {
        const auto it = spans.find(d.node);
        if (it != spans.end()) {
            d.line = it->second.line;
            d.column = it->second.column;
        } else {
            d.line = 1;
            d.column = 1;
        }
    }
    return analysis;
}

std::string
renderRanges(const ExecutionPlan &plan, const RangeAnalysis &analysis)
{
    std::ostringstream os;
    os << "ranges: " << plan.nodeCount() << " nodes, wake proven "
       << fmt(analysis.provenWakeRateHz) << " Hz (syntactic "
       << fmt(plan.wakeRateBoundHz) << " Hz)";
    if (!analysis.wakeReachable)
        os << ", wake dead";
    if (analysis.wakeAlwaysFires)
        os << ", wake always fires";
    os << ", q15 "
       << (analysis.q15Provable ? "provable" : "not provable")
       << "\n";
    os << "channels:";
    for (const ChannelRange &ch : analysis.channelRanges)
        os << " " << ch.channel << "=[" << fmt(ch.lo) << ", "
           << fmt(ch.hi) << "]";
    os << "\n";
    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        const NodeRange &r = analysis.nodes[i];
        os << "  n" << i << ": " << plan.algorithms[i];
        os << " value=" << fmtInterval(r.value);
        if (r.magnitudeBound > 0.0)
            os << " |X|<=" << fmt(r.magnitudeBound);
        os << " rate<=" << fmt(r.provenRateHz) << "Hz";
        if (!r.reachable)
            os << " unreachable";
        if (r.quantizes) {
            os << " q15=" << (r.q15Safe ? "safe" : "unsafe");
            if (r.q15Scale != 1.0)
                os << " scale=" << fmt(r.q15Scale);
            if (r.recommendedShift > 0)
                os << " shift=" << r.recommendedShift;
        }
        os << "\n";
    }
    for (const Diagnostic &d : analysis.diagnostics) {
        os << severityName(d.severity) << ": [" << d.code << "] "
           << d.message;
        if (d.node != 0)
            os << " (node " << d.node << ")";
        os << "\n";
        if (!d.hint.empty())
            os << "    hint: " << d.hint << "\n";
    }
    return os.str();
}

} // namespace sidewinder::il
