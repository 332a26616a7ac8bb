/**
 * @file
 * Kernel coverage and equivalence tests:
 *  - every algorithm in the standardized table instantiates a kernel
 *    (registry sync);
 *  - pipelines executed by the hub interpreter produce the same
 *    results as the equivalent native dsp/ composition, so the
 *    second-stage classifier and the wake-up condition agree on what
 *    they compute (the "platform implements algorithms once"
 *    property).
 */

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/filters.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "hub/kernel.h"
#include "il/algorithm_info.h"
#include "il/parser.h"
#include "support/rng.h"

namespace sidewinder::hub {
namespace {

/** Build a minimal valid statement for @p info. */
il::Statement
statementFor(const il::AlgorithmInfo &info)
{
    il::Statement stmt;
    stmt.algorithm = info.name;
    stmt.id = 10;
    for (std::size_t i = 0; i < info.minInputs; ++i)
        stmt.inputs.push_back(il::SourceRef::makeNode(
            static_cast<il::NodeId>(i + 1)));

    // Sensible defaults for each parameter slot.
    if (info.name == "movingAvg" || info.name == "consecutive")
        stmt.params = {4.0};
    else if (info.name == "expMovingAvg")
        stmt.params = {0.5};
    else if (info.name == "window")
        stmt.params = {16.0};
    else if (info.name == "lowPass" || info.name == "highPass" ||
             info.name == "goertzel" || info.name == "goertzelRel")
        stmt.params = {10.0};
    else if (info.name == "minThreshold" ||
             info.name == "maxThreshold")
        stmt.params = {1.0};
    else if (info.name == "bandThreshold" ||
             info.name == "outsideBandThreshold" ||
             info.name == "localMaxima" || info.name == "localMinima")
        stmt.params = {1.0, 2.0};
    return stmt;
}

TEST(KernelRegistry, EveryStandardAlgorithmInstantiates)
{
    for (const auto &info : il::standardAlgorithms()) {
        il::NodeStream input;
        input.kind = info.inputKind;
        input.fireRateHz = 50.0;
        input.baseRateHz = 100.0;
        input.frameSize =
            info.inputKind == il::ValueKind::Scalar ? 0 : 32;
        input.fftSize = 32;

        const il::Statement stmt = statementFor(info);
        std::vector<il::NodeStream> inputs(stmt.inputs.size(), input);
        EXPECT_NO_THROW({
            auto kernel = makeKernel(stmt.algorithm, stmt.params, inputs);
            EXPECT_NE(kernel, nullptr);
        }) << info.name;
    }
}

TEST(KernelRegistry, ConditionalFlagsMatchSemantics)
{
    il::NodeStream scalar;
    scalar.kind = il::ValueKind::Scalar;
    scalar.fireRateHz = 50.0;
    scalar.baseRateHz = 50.0;

    auto conditional_of = [&](const char *name) {
        const auto info = il::findAlgorithm(name);
        EXPECT_NE(info, nullptr);
        const il::Statement stmt = statementFor(*info);
        std::vector<il::NodeStream> inputs(stmt.inputs.size(), scalar);
        return makeKernel(stmt.algorithm, stmt.params, inputs)
            ->conditional();
    };

    EXPECT_TRUE(conditional_of("minThreshold"));
    EXPECT_TRUE(conditional_of("bandThreshold"));
    EXPECT_TRUE(conditional_of("consecutive"));
    EXPECT_FALSE(conditional_of("movingAvg"));
    EXPECT_FALSE(conditional_of("vectorMagnitude"));
}

TEST(VectorMagnitude, PythagoreanTriple)
{
    il::NodeStream scalar;
    scalar.kind = il::ValueKind::Scalar;
    scalar.fireRateHz = 50.0;
    scalar.baseRateHz = 50.0;
    const auto magnitude_of = [&](const std::vector<double> &parts) {
        const std::vector<Value> values(parts.begin(), parts.end());
        std::vector<const Value *> inputs;
        for (const Value &v : values)
            inputs.push_back(&v);
        Value out;
        const auto kernel = makeKernel(
            "vectorMagnitude", {},
            std::vector<il::NodeStream>(parts.size(), scalar));
        EXPECT_TRUE(kernel->invokeInto(inputs, out));
        return out.scalar();
    };
    EXPECT_DOUBLE_EQ(magnitude_of({3.0, 4.0}), 5.0);
    EXPECT_DOUBLE_EQ(magnitude_of({1.0, 2.0, 2.0}), 3.0);
}

/** Feed one channel through an engine, returning OUT values. */
std::vector<double>
runEngine(const std::string &il_text,
          const std::vector<double> &samples, double rate = 100.0)
{
    Engine engine({{"CH", rate}});
    engine.addCondition(1, test::planFor(engine, il::parse(il_text)));
    std::vector<double> out;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        engine.pushSamples({samples[i]},
                           static_cast<double>(i) / rate);
        for (const auto &event : engine.drainWakeEvents())
            out.push_back(event.value);
    }
    return out;
}

TEST(Equivalence, MovingAverageMatchesNative)
{
    Rng rng(1);
    std::vector<double> samples(200);
    for (auto &s : samples)
        s = rng.uniform(-5.0, 5.0);

    // Hub: movingAvg -> (pass-everything threshold) -> OUT.
    const auto hub_out = runEngine(
        "CH -> movingAvg(id=1, params={7});\n"
        "1 -> minThreshold(id=2, params={-1e9});\n"
        "2 -> OUT;\n",
        samples);

    dsp::MovingAverage native(7);
    std::vector<double> native_out;
    for (double s : samples)
        if (auto v = native.push(s))
            native_out.push_back(*v);

    ASSERT_EQ(hub_out.size(), native_out.size());
    for (std::size_t i = 0; i < hub_out.size(); ++i)
        EXPECT_NEAR(hub_out[i], native_out[i], 1e-12);
}

TEST(Equivalence, WindowedVarianceMatchesNative)
{
    Rng rng(2);
    std::vector<double> samples(512);
    for (auto &s : samples)
        s = rng.uniform(-1.0, 1.0);

    const auto hub_out = runEngine(
        "CH -> window(id=1, params={64});\n"
        "1 -> variance(id=2);\n"
        "2 -> minThreshold(id=3, params={-1e9});\n"
        "3 -> OUT;\n",
        samples);

    std::vector<double> native_out;
    for (std::size_t start = 0; start + 64 <= samples.size();
         start += 64) {
        const std::vector<double> frame(
            samples.begin() + static_cast<long>(start),
            samples.begin() + static_cast<long>(start + 64));
        native_out.push_back(dsp::variance(frame));
    }

    ASSERT_EQ(hub_out.size(), native_out.size());
    for (std::size_t i = 0; i < hub_out.size(); ++i)
        EXPECT_NEAR(hub_out[i], native_out[i], 1e-12);
}

TEST(Equivalence, SpectralChainMatchesNative)
{
    // A 1 kHz tone at 4 kHz: the hub's window/fft/spectrum/
    // dominantFreqHz chain must report the same frequency as the
    // native fftReal + magnitudesInto + dominantFrequency composition.
    const double rate = 4000.0;
    std::vector<double> samples(1024);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = std::sin(2.0 * std::numbers::pi * 1000.0 *
                              static_cast<double>(i) / rate);

    const auto hub_out = runEngine(
        "CH -> window(id=1, params={256});\n"
        "1 -> fft(id=2);\n"
        "2 -> spectrum(id=3);\n"
        "3 -> dominantFreqHz(id=4);\n"
        "4 -> minThreshold(id=5, params={0});\n"
        "5 -> OUT;\n",
        samples, rate);

    ASSERT_EQ(hub_out.size(), 4u); // 1024 / 256 windows
    for (std::size_t w = 0; w < hub_out.size(); ++w) {
        const std::vector<double> frame(
            samples.begin() + static_cast<long>(w * 256),
            samples.begin() + static_cast<long>((w + 1) * 256));
        const auto spectrum = dsp::fftReal(frame);
        std::vector<double> mags(frame.size() / 2 + 1);
        dsp::magnitudesInto(spectrum.data(), mags.size(), mags.data());
        const auto dom = dsp::dominantFrequency(mags);
        EXPECT_NEAR(hub_out[w],
                    dsp::binFrequencyHz(dom.bin, 256, rate), 1e-9);
    }
}

TEST(Equivalence, HighPassChainMatchesNativeFilter)
{
    const double rate = 4000.0;
    std::vector<double> samples(512);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double t = static_cast<double>(i) / rate;
        samples[i] = std::sin(2.0 * std::numbers::pi * 200.0 * t) +
                     std::sin(2.0 * std::numbers::pi * 1500.0 * t);
    }

    const auto hub_out = runEngine(
        "CH -> window(id=1, params={256});\n"
        "1 -> highPass(id=2, params={750});\n"
        "2 -> rms(id=3);\n"
        "3 -> minThreshold(id=4, params={0});\n"
        "4 -> OUT;\n",
        samples, rate);

    const dsp::FftBlockFilter native(dsp::PassBand::HighPass, 750.0,
                                     rate);
    ASSERT_EQ(hub_out.size(), 2u);
    for (std::size_t w = 0; w < hub_out.size(); ++w) {
        const std::vector<double> frame(
            samples.begin() + static_cast<long>(w * 256),
            samples.begin() + static_cast<long>((w + 1) * 256));
        EXPECT_NEAR(hub_out[w],
                    dsp::rootMeanSquare(native.apply(frame)), 1e-9);
    }
}

} // namespace
} // namespace sidewinder::hub
