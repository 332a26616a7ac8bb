/**
 * @file
 * Tests for the developer API: pipeline compilation (Figure 2a ->
 * Figure 2c), and the full phone-to-hub loop through the sensor
 * manager over the simulated UART.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/algorithm.h"
#include "core/pipeline.h"
#include "core/sensor_manager.h"
#include "core/sensors.h"
#include "hub/mcu.h"
#include "hub/runtime.h"
#include "il/analyze.h"
#include "il/writer.h"
#include "support/error.h"

namespace sidewinder::core {
namespace {

/** The exact developer code of Figure 2a of the paper. */
ProcessingPipeline
significantMotionPipeline()
{
    ProcessingPipeline significant_motion;
    std::vector<ProcessingBranch> branches;
    branches.emplace_back(channel::accelerometerX);
    branches.emplace_back(channel::accelerometerY);
    branches.emplace_back(channel::accelerometerZ);
    branches[0].add(MovingAverage(10));
    branches[1].add(MovingAverage(10));
    branches[2].add(MovingAverage(10));
    significant_motion.add(branches);
    significant_motion.add(VectorMagnitude());
    significant_motion.add(MinThreshold(15));
    return significant_motion;
}

TEST(Pipeline, CompilesFigure2aToFigure2c)
{
    const std::string expected =
        "ACC_X -> movingAvg(id=1, params={10});\n"
        "ACC_Y -> movingAvg(id=2, params={10});\n"
        "ACC_Z -> movingAvg(id=3, params={10});\n"
        "1,2,3 -> vectorMagnitude(id=4);\n"
        "4 -> minThreshold(id=5, params={15});\n"
        "5 -> OUT;\n";
    EXPECT_EQ(il::write(significantMotionPipeline().compile()),
              expected);
}

TEST(Pipeline, EmptyPipelineThrows)
{
    EXPECT_THROW(ProcessingPipeline().compile(), ConfigError);
}

TEST(Pipeline, MultiBranchWithoutAggregationThrows)
{
    ProcessingPipeline pipeline;
    pipeline.add(ProcessingBranch(channel::accelerometerX)
                     .add(MovingAverage(10)));
    pipeline.add(ProcessingBranch(channel::accelerometerY)
                     .add(MovingAverage(10)));
    EXPECT_THROW(pipeline.compile(), ConfigError);
}

TEST(Pipeline, BareChannelToOutThrows)
{
    ProcessingPipeline pipeline;
    pipeline.add(ProcessingBranch(channel::accelerometerX));
    EXPECT_THROW(pipeline.compile(), ConfigError);
}

TEST(Pipeline, SingleBranchChainsSequentially)
{
    ProcessingPipeline pipeline;
    pipeline.add(ProcessingBranch(channel::accelerometerY)
                     .add(MovingAverage(3))
                     .add(LocalMinima(-6.75, -3.75)));
    const auto program = pipeline.compile();
    ASSERT_EQ(program.statements.size(), 3u);
    EXPECT_EQ(program.statements[1].algorithm, "localMinima");
    EXPECT_TRUE(program.statements[2].isOut);
}

TEST(Pipeline, StagesAfterAggregationChain)
{
    ProcessingPipeline pipeline;
    pipeline.add(ProcessingBranch(channel::audio)
                     .add(Window(256))
                     .add(Rms())
                     .add(MinThreshold(0.1)));
    pipeline.add(ProcessingBranch(channel::audio)
                     .add(Window(256))
                     .add(Max())
                     .add(MaxThreshold(1.0)));
    pipeline.add(And());
    pipeline.add(Consecutive(3));
    const auto program = pipeline.compile();
    // 3 + 3 branch nodes + and + consecutive + OUT.
    ASSERT_EQ(program.statements.size(), 9u);
    EXPECT_EQ(program.statements[6].algorithm, "and");
    EXPECT_EQ(program.statements[6].inputs.size(), 2u);
    EXPECT_EQ(program.statements[7].algorithm, "consecutive");
}

TEST(Algorithms, StubsCarryIlNamesAndParams)
{
    EXPECT_EQ(MovingAverage(10).name(), "movingAvg");
    EXPECT_EQ(MovingAverage(10).params(),
              (std::vector<double>{10.0}));
    EXPECT_EQ(Window(256, true).params(),
              (std::vector<double>{256.0, 1.0}));
    EXPECT_EQ(Window(256, false, 128).params(),
              (std::vector<double>{256.0, 0.0, 128.0}));
    EXPECT_EQ(BandThreshold(850, 1800).params(),
              (std::vector<double>{850.0, 1800.0}));
    EXPECT_TRUE(Fft().params().empty());
}

TEST(Algorithms, UncalledFactoriesCompileToAnalyzableIl)
{
    // The factories no example or benchmark calls: each pipeline's IL
    // names the algorithm with its parameters and passes analysis.
    const struct
    {
        ProcessingBranch branch;
        std::string statement;
    } cases[] = {
        {ProcessingBranch(channel::audio)
             .add(Window(256))
             .add(Fft())
             .add(Spectrum())
             .add(DominantFrequencyMagnitude())
             .add(MinThreshold(1.0)),
         "3 -> dominantFreqMag(id=4);"},
        {ProcessingBranch(channel::accelerometerX)
             .add(ExponentialMovingAverage(0.25))
             .add(MinThreshold(1.0)),
         "ACC_X -> expMovingAvg(id=1, params={0.25});"},
        {ProcessingBranch(channel::audio)
             .add(Window(256))
             .add(Goertzel(1000.0))
             .add(MinThreshold(1.0)),
         "1 -> goertzel(id=2, params={1000});"},
        {ProcessingBranch(channel::audio)
             .add(Window(256))
             .add(Fft())
             .add(Ifft())
             .add(Rms())
             .add(MinThreshold(0.1)),
         "2 -> ifft(id=3);"},
        {ProcessingBranch(channel::audio)
             .add(Window(256))
             .add(LowPassFilter(500.0))
             .add(Rms())
             .add(MinThreshold(0.1)),
         "1 -> lowPass(id=2, params={500});"},
        {ProcessingBranch(channel::accelerometerZ)
             .add(Window(16))
             .add(Min())
             .add(MinThreshold(5.0)),
         "1 -> min(id=2);"},
        {ProcessingBranch(channel::accelerometerY)
             .add(MovingAverage(5))
             .add(OutsideBandThreshold(-2.0, 2.0)),
         "1 -> outsideBandThreshold(id=2, params={-2,2});"},
    };
    for (const auto &c : cases) {
        ProcessingPipeline pipeline;
        pipeline.add(c.branch);
        const il::Program program = pipeline.compile();
        const std::string text = il::write(program);
        EXPECT_NE(text.find(c.statement), std::string::npos) << text;
        EXPECT_TRUE(il::analyze(program, allChannels()).ok()) << text;
    }
}

TEST(Sensors, DefaultChannels)
{
    const auto accel = accelerometerChannels();
    ASSERT_EQ(accel.size(), 3u);
    EXPECT_EQ(accel[0].name, "ACC_X");
    EXPECT_DOUBLE_EQ(accel[0].sampleRateHz, 50.0);
    const auto audio = audioChannels();
    ASSERT_EQ(audio.size(), 1u);
    EXPECT_DOUBLE_EQ(audio[0].sampleRateHz, 4000.0);
    EXPECT_EQ(allChannels().size(), 5u);
}

/** Records wake-up callbacks for assertions. */
class RecordingListener : public SensorEventListener
{
  public:
    void
    onSensorEvent(const SensorData &data) override
    {
        events.push_back(data);
    }

    std::vector<SensorData> events;
};

/** Full loop: manager -> UART -> hub -> UART -> callback. */
class EndToEnd : public ::testing::Test
{
  protected:
    EndToEnd()
        : link(1e6),
          hub(link, accelerometerChannels(), hub::msp430()),
          manager(link, accelerometerChannels())
    {}

    transport::LinkPair link;
    hub::HubRuntime hub;
    SidewinderSensorManager manager;
    RecordingListener listener;
};

TEST_F(EndToEnd, PushActivatesAfterAck)
{
    const int id =
        manager.push(significantMotionPipeline(), &listener, 0.0);
    EXPECT_EQ(manager.state(id), ConditionState::Pending);
    hub.pollLink(1.0);
    manager.poll(2.0);
    EXPECT_EQ(manager.state(id), ConditionState::Active);
    EXPECT_TRUE(hub.engine().hasCondition(id));
}

TEST_F(EndToEnd, WakeUpReachesListener)
{
    const int id =
        manager.push(significantMotionPipeline(), &listener, 0.0);
    hub.pollLink(1.0);
    manager.poll(2.0);

    for (int i = 0; i < 10; ++i)
        hub.pushSamples({20.0, 20.0, 20.0}, 2.0 + i * 0.02);
    manager.poll(10.0);

    ASSERT_FALSE(listener.events.empty());
    EXPECT_EQ(listener.events.front().conditionId, id);
    EXPECT_GE(listener.events.front().triggerValue, 15.0);
    EXPECT_FALSE(listener.events.front().rawData.empty());
}

TEST_F(EndToEnd, InvalidPipelineFailsLocallyBeforeTransmission)
{
    ProcessingPipeline bad;
    bad.add(ProcessingBranch("GYRO").add(MovingAverage(10)));
    EXPECT_THROW(manager.push(bad, &listener), SidewinderError);
}

TEST_F(EndToEnd, NullListenerRejected)
{
    EXPECT_THROW(manager.push(significantMotionPipeline(), nullptr),
                 ConfigError);
}

TEST_F(EndToEnd, RemoveSilencesCallbacks)
{
    const int id =
        manager.push(significantMotionPipeline(), &listener, 0.0);
    hub.pollLink(1.0);
    manager.poll(2.0);
    manager.remove(id, 2.0);
    hub.pollLink(3.0);

    for (int i = 0; i < 10; ++i)
        hub.pushSamples({20.0, 20.0, 20.0}, 3.0 + i * 0.02);
    manager.poll(10.0);
    EXPECT_TRUE(listener.events.empty());
    EXPECT_EQ(manager.state(id), ConditionState::Removed);
}

TEST_F(EndToEnd, AbortUpdateRollsTheHubBack)
{
    const int id =
        manager.push(significantMotionPipeline(), &listener, 0.0);
    hub.pollLink(1.0);
    manager.poll(2.0);

    ProcessingPipeline retuned;
    retuned.add(ProcessingBranch(channel::accelerometerX)
                    .add(MovingAverage(5))
                    .add(MinThreshold(3.0)));
    manager.beginUpdate(2.0);
    manager.updateCondition(id, retuned, 2.0);
    hub.pollLink(3.0);
    ASSERT_TRUE(hub.updateInProgress());
    EXPECT_EQ(hub.engine().stagedCount(), 1u);

    manager.abortUpdate(3.0);
    EXPECT_FALSE(manager.updateInProgress());
    // Well inside the hub's 5 s stall timeout: the UpdateAbort frame,
    // not silence, closes the transaction.
    hub.pollLink(4.0);
    EXPECT_FALSE(hub.updateInProgress());
    EXPECT_EQ(hub.engine().stagedCount(), 0u);
    EXPECT_EQ(hub.updatesRolledBack(), 1u);
    EXPECT_EQ(hub.configEpoch(), 0u);
    EXPECT_TRUE(hub.engine().hasCondition(id));
}

TEST_F(EndToEnd, PushDiagnosticsEndWithThePlacementNote)
{
    const int id =
        manager.push(significantMotionPipeline(), &listener, 0.0);
    const hub::PlacementDecision &home = manager.placementOf(id);
    ASSERT_TRUE(home.placed());
    const auto &diagnostics = manager.pushDiagnostics(id);
    ASSERT_FALSE(diagnostics.empty());
    const il::Diagnostic &note = diagnostics.back();
    EXPECT_EQ(note.code, il::SW203_PLACEMENT);
    EXPECT_EQ(note.severity, il::Severity::Note);
    EXPECT_NE(note.message.find("homed on " + home.executorName),
              std::string::npos)
        << note.message;
    EXPECT_EQ(note.hint, "config push wired to " + home.wireTarget);
}

TEST_F(EndToEnd, HubRejectionSurfacesReason)
{
    // An audio-rate FFT pipeline is beyond the MSP430 hub, but local
    // validation passes (it is a well-formed program) — the rejection
    // must come back from the hub. Use an audio-capable manager+hub.
    transport::LinkPair audio_link(1e6);
    hub::HubRuntime audio_hub(audio_link, audioChannels(),
                              hub::msp430());
    SidewinderSensorManager audio_manager(audio_link, audioChannels());

    ProcessingPipeline fft_pipeline;
    fft_pipeline.add(ProcessingBranch(channel::audio)
                         .add(Window(256))
                         .add(Fft())
                         .add(Spectrum())
                         .add(PeakToMeanRatio())
                         .add(MinThreshold(4.0)));
    const int id = audio_manager.push(fft_pipeline, &listener, 0.0);
    audio_hub.pollLink(1.0);
    audio_manager.poll(2.0);
    EXPECT_EQ(audio_manager.state(id), ConditionState::Rejected);
    EXPECT_FALSE(audio_manager.rejectionReason(id).empty());
}

TEST_F(EndToEnd, IlTextIsInspectable)
{
    const int id =
        manager.push(significantMotionPipeline(), &listener, 0.0);
    EXPECT_NE(manager.ilTextOf(id).find("vectorMagnitude"),
              std::string::npos);
    EXPECT_THROW(manager.ilTextOf(id + 1), ConfigError);

    // The manager ships the lowered plan's IL, so siren's three
    // branches arrive sharing one window statement.
    transport::LinkPair audio_link(1e6);
    SidewinderSensorManager audio_manager(audio_link, audioChannels());
    const std::string siren = audio_manager.ilTextOf(audio_manager.push(
        apps::makeSirenApp()->wakeCondition(), &listener, 0.0));
    std::size_t windows = 0;
    for (auto at = siren.find("window("); at != std::string::npos;
         at = siren.find("window(", at + 1))
        ++windows;
    EXPECT_EQ(windows, 1u) << siren;
}

} // namespace
} // namespace sidewinder::core
