/**
 * @file
 * Tests for the static IL analyzer: diagnostic codes, the cost model
 * (cycles, RAM, wake-rate bound), the text/JSON renderers, the hub
 * admission verdict, and the golden seeded-bad corpus in tests/data/.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "apps/predefined.h"
#include "core/sensors.h"
#include "hub/mcu.h"
#include "il/algorithm_info.h"
#include "il/analyze.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/plan.h"
#include "il/validate.h"
#include "il/writer.h"
#include "support/error.h"

namespace sidewinder::il {
namespace {

/** The default prototype channel set (mirrors core::allChannels()). */
const std::vector<ChannelInfo> kChannels = {{"ACC_X", 50.0},
                                            {"ACC_Y", 50.0},
                                            {"ACC_Z", 50.0},
                                            {"AUDIO", 4000.0},
                                            {"BARO", 20.0}};

AnalysisResult
analyzeText(const std::string &text)
{
    return analyze(parse(text), kChannels);
}

std::set<std::string>
codesOf(const AnalysisResult &result)
{
    std::set<std::string> codes;
    for (const auto &d : result.diagnostics)
        codes.insert(d.code);
    return codes;
}

TEST(Analyze, CleanProgramHasNoDiagnostics)
{
    const auto result = analyzeText(
        "ACC_X -> movingAvg(id=1, params={5});\n"
        "1 -> minThreshold(id=2, params={2});\n"
        "2 -> OUT;\n");
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.diagnostics.empty())
        << renderText(result, "<test>");
    EXPECT_EQ(result.streams.size(), 2u);
}

TEST(Analyze, ReportsEveryErrorNotJustTheFirst)
{
    // validate() stops at the first violation; analyze() keeps going.
    const auto result = analyzeText(
        "AUDIO -> window(id=1, params={100});\n"
        "1 -> fft(id=2);\n"
        "2 -> OUT;\n");
    EXPECT_FALSE(result.ok());
    const auto codes = codesOf(result);
    EXPECT_TRUE(codes.count(SW010_FRAME_NOT_POW2));
    EXPECT_TRUE(codes.count(SW013_OUT_STATEMENT));
    EXPECT_GE(result.errorCount(), 2u);
}

TEST(Analyze, HugeCountsAndNonFiniteParametersAreBadParameters)
{
    // Kernels and the RAM model hold counts in a std::size_t, and the
    // wire form cannot spell a non-finite number: SW009 rejects both
    // before anything casts them.
    const char *const programs[] = {
        "ACC_X -> movingAvg(id=1, params={1e300});\n"
        "1 -> minThreshold(id=2, params={1});\n"
        "2 -> OUT;\n",
        "ACC_X -> window(id=1, params={1e300});\n"
        "1 -> mean(id=2);\n"
        "2 -> minThreshold(id=3, params={1});\n"
        "3 -> OUT;\n",
        "ACC_X -> consecutive(id=1, params={1e300});\n"
        "1 -> OUT;\n",
        "ACC_X -> localMaxima(id=1, params={0, 1, 1e300});\n"
        "1 -> OUT;\n",
        "ACC_X -> minThreshold(id=1, params={1e999});\n"
        "1 -> OUT;\n",
    };
    for (const char *text : programs) {
        const auto result = analyzeText(text);
        const auto error = std::find_if(
            result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic &d) {
                return d.severity == Severity::Error;
            });
        ASSERT_NE(error, result.diagnostics.end()) << text;
        EXPECT_EQ(error->code, SW009_BAD_PARAMETER)
            << text << renderText(result, "<test>");
        EXPECT_THROW(validate(parse(text), kChannels), ParseError)
            << text;
    }
}

TEST(Analyze, DiagnosticsCarryRealSpans)
{
    const auto result = analyzeText(
        "ACC_X -> movingAvg(id=1, params={5});\n"
        "1 -> fooBar(id=2);\n"
        "2 -> OUT;\n");
    ASSERT_FALSE(result.diagnostics.empty());
    for (const auto &d : result.diagnostics) {
        EXPECT_GT(d.line, 0);
        EXPECT_GT(d.column, 0);
    }
    EXPECT_EQ(result.diagnostics.front().line, 2);
}

TEST(Analyze, CostModelMatchesAlgorithmTable)
{
    const auto result = analyzeText(
        "ACC_X -> movingAvg(id=1, params={5});\n"
        "1 -> minThreshold(id=2, params={2});\n"
        "2 -> OUT;\n");
    ASSERT_TRUE(result.ok());

    const auto avg = findAlgorithm("movingAvg");
    const auto thr = findAlgorithm("minThreshold");
    ASSERT_TRUE(avg && thr);

    // Both nodes run per 50 Hz scalar sample.
    const auto &n1 = result.cost.nodes.at(1);
    EXPECT_DOUBLE_EQ(n1.invokeRateHz, 50.0);
    EXPECT_DOUBLE_EQ(n1.cyclesPerSecond,
                     n1.cyclesPerInvoke * 50.0);
    EXPECT_DOUBLE_EQ(result.cost.cyclesPerSecond,
                     result.cost.nodes.at(1).cyclesPerSecond +
                         result.cost.nodes.at(2).cyclesPerSecond);
    EXPECT_GT(result.cost.ramBytes, 0u);
    // minThreshold is conditional, so it bounds the wake rate at its
    // firing rate.
    EXPECT_DOUBLE_EQ(result.cost.wakeRateBoundHz, 50.0);
}

TEST(Analyze, WindowHopSlowsTheWakeRate)
{
    const auto result = analyzeText(
        "AUDIO -> window(id=1, params={256});\n"
        "1 -> rms(id=2);\n"
        "2 -> minThreshold(id=3, params={0.1});\n"
        "3 -> OUT;\n");
    ASSERT_TRUE(result.ok());
    // 4000 Hz / 256-sample tumbling window = 15.625 windows/s.
    EXPECT_DOUBLE_EQ(result.cost.wakeRateBoundHz, 4000.0 / 256.0);
}

TEST(Analyze, RamGrowsWithWindowSize)
{
    const auto small = analyzeText(
        "ACC_X -> window(id=1, params={64});\n"
        "1 -> stddev(id=2);\n"
        "2 -> minThreshold(id=3, params={1});\n"
        "3 -> OUT;\n");
    const auto large = analyzeText(
        "ACC_X -> window(id=1, params={4096});\n"
        "1 -> stddev(id=2);\n"
        "2 -> minThreshold(id=3, params={1});\n"
        "3 -> OUT;\n");
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(large.ok());
    EXPECT_GT(large.cost.ramBytes, small.cost.ramBytes);
}

TEST(Analyze, InvokeCostAppliesFftFactor)
{
    const auto fft = findAlgorithm("fft");
    const auto rms = findAlgorithm("rms");
    ASSERT_TRUE(fft && rms);
    NodeStream frame;
    frame.kind = ValueKind::Frame;
    frame.frameSize = 256;
    frame.fireRateHz = 15.625;
    // FFT-family cost carries the extra log2(N) factor.
    EXPECT_GT(invokeCost(*fft, frame) / fft->cyclesPerUnit,
              invokeCost(*rms, frame) / rms->cyclesPerUnit);
}

TEST(Analyze, RenderTextIsGccStyle)
{
    const auto result = analyzeText(
        "AUDIO -> window(id=1, params={100});\n"
        "1 -> fft(id=2);\n"
        "2 -> OUT;\n");
    const std::string text = renderText(result, "prog.il");
    EXPECT_NE(text.find("prog.il:2:1: error: [SW010]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("hint:"), std::string::npos);
    EXPECT_NE(text.find("error(s)"), std::string::npos);
}

TEST(Analyze, RenderJsonHasStructure)
{
    const auto result = analyzeText(
        "ACC_X -> movingAvg(id=1, params={5});\n"
        "1 -> minThreshold(id=2, params={2});\n"
        "2 -> OUT;\n");
    const std::string json = renderJson(result, "prog.il");
    EXPECT_NE(json.find("\"file\":\"prog.il\""), std::string::npos);
    EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(json.find("\"cyclesPerSecond\""), std::string::npos);
    EXPECT_NE(json.find("\"ramBytes\""), std::string::npos);
    EXPECT_NE(json.find("\"wakeRateBoundHz\""), std::string::npos);
}

TEST(Analyze, JsonEscapesSpecialCharacters)
{
    AnalysisResult result;
    Diagnostic d;
    d.code = "SW999";
    d.message = "quote \" backslash \\ newline \n tab \t";
    result.diagnostics.push_back(d);
    const std::string json = renderJson(result, "a\"b");
    EXPECT_NE(json.find("a\\\"b"), std::string::npos);
    EXPECT_NE(json.find("\\\\"), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_EQ(json.find('\n', json.find("diagnostics")),
              json.rfind('\n'));
}

/**
 * The admission-control headline: a program validate() happily
 * accepts — tiny compute load — that no MCU can actually hold in RAM.
 * Only the analyzer's RAM model catches it.
 */
TEST(Analyze, SelectMcuRejectsRamHogThatValidatePasses)
{
    const Program program = parse(
        "ACC_X -> window(id=1, params={16384});\n"
        "1 -> stddev(id=2);\n"
        "2 -> minThreshold(id=3, params={0.5});\n"
        "3 -> OUT;\n");
    EXPECT_NO_THROW(validate(program, kChannels));

    const auto result = analyze(program, kChannels);
    EXPECT_TRUE(result.ok());
    // Under the old cycles-only model this program was admissible.
    EXPECT_TRUE(
        hub::canRunInRealTime(hub::msp430(),
                              result.cost.cyclesPerSecond));
    EXPECT_GT(result.cost.ramBytes, hub::lm4f120().ramBytes);
    EXPECT_THROW(hub::selectMcuForPlan(lower(program, kChannels)),
                 CapabilityError);

    const auto verdict = hub::admissionDiagnostics(result.cost);
    ASSERT_EQ(verdict.size(), 1u);
    EXPECT_EQ(verdict.front().code, SW017_ADMISSION);
    EXPECT_EQ(verdict.front().severity, Severity::Error);
}

TEST(Analyze, AdmissionNotesTheBiggerMcu)
{
    // Audio FFT load: fits the LM4F120 but not the MSP430, which the
    // admission pass surfaces as an SW201 note.
    const auto result = analyzeText(
        "AUDIO -> window(id=1, params={256});\n"
        "1 -> fft(id=2);\n"
        "2 -> spectrum(id=3);\n"
        "3 -> peakToMeanRatio(id=4);\n"
        "4 -> minThreshold(id=5, params={4});\n"
        "5 -> OUT;\n");
    ASSERT_TRUE(result.ok());
    const auto verdict = hub::admissionDiagnostics(result.cost);
    ASSERT_EQ(verdict.size(), 1u);
    EXPECT_EQ(verdict.front().code, SW201_MCU_ASSIGNMENT);
    EXPECT_EQ(verdict.front().severity, Severity::Note);
    EXPECT_NE(verdict.front().message.find("LM4F120"),
              std::string::npos);
}

TEST(Analyze, FitsBudgetChecksBothAxes)
{
    ProgramCost cost;
    cost.cyclesPerSecond = 1000.0;
    cost.ramBytes = 1024;
    EXPECT_TRUE(hub::fitsBudget(hub::msp430(), cost));
    cost.ramBytes = 64 * 1024;
    EXPECT_FALSE(hub::fitsBudget(hub::msp430(), cost));
    cost.ramBytes = 1024;
    cost.cyclesPerSecond = 1e9;
    EXPECT_FALSE(hub::fitsBudget(hub::msp430(), cost));

    // ramBytes == 0 means "no RAM budget modeled": only cycles gate.
    const hub::McuModel legacy{"legacy", 1.0, 2000.0};
    cost.cyclesPerSecond = 1000.0;
    cost.ramBytes = 1u << 30;
    EXPECT_TRUE(hub::fitsBudget(legacy, cost));
}

// ---------------------------------------------------------------------
// Golden corpus: every tests/data/*.il file declares the exact set of
// diagnostic codes it must trigger in a leading "# expect:" comment.

std::filesystem::path
dataDir()
{
    return std::filesystem::path(SW_TEST_DATA_DIR);
}

/** The .il corpus in tests/data, sorted by name. */
std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dataDir()))
        if (entry.path().extension() == ".il")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

std::set<std::string>
parseExpectHeader(const std::string &source, const std::string &name)
{
    std::set<std::string> codes;
    std::istringstream lines(source);
    std::string line;
    while (std::getline(lines, line)) {
        const auto marker = line.find("# expect:");
        if (marker == std::string::npos)
            continue;
        std::istringstream words(line.substr(marker + 9));
        std::string word;
        while (words >> word)
            codes.insert(word);
        return codes;
    }
    ADD_FAILURE() << name << " has no '# expect:' header";
    return codes;
}

TEST(AnalyzeCorpus, EveryFileTriggersExactlyItsExpectedCodes)
{
    const auto files = corpusFiles();
    ASSERT_GE(files.size(), 20u) << "corpus went missing";

    for (const auto &path : files) {
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        std::ostringstream text;
        text << in.rdbuf();
        const std::string name = path.filename().string();

        const std::set<std::string> expected =
            parseExpectHeader(text.str(), name);

        AnalysisResult result;
        ASSERT_NO_THROW(result = analyzeText(text.str())) << name;
        // Fold in the admission verdict exactly as swlint does.
        if (result.ok())
            for (auto &d : hub::admissionDiagnostics(result.cost))
                result.diagnostics.push_back(std::move(d));

        EXPECT_EQ(codesOf(result), expected)
            << name << ":\n"
            << renderText(result, name);
    }
}

// ---------------------------------------------------------------------
// Mutant verdicts: each tests/data/*.il program with each parameter in
// turn set to each of kMutantValues, and each non-OUT statement's
// algorithm in turn swapped for each standard algorithm. One line per
// mutant pins validate()'s verdict, the analyzer's first Error code
// and, for an accepted mutant, an FNV-1a digest of renderPlan(lower())
// — so the one legality walk must keep every verdict, stream and cost
// the rules have ever produced. Regenerate with SW_UPDATE_GOLDENS=1.

const double kMutantValues[] = {0,   -1,  0.5,  1,    2,    3,
                                64,  100, 128,  1999, 2000, 4096};

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325u;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3u;
    }
    return hash;
}

std::string
verdictLine(const std::string &label, const Program &mutant)
{
    bool accepted = true;
    try {
        validate(mutant, kChannels);
    } catch (const ParseError &) {
        accepted = false;
    }
    const AnalysisResult result = analyze(mutant, kChannels);
    const auto error = std::find_if(
        result.diagnostics.begin(), result.diagnostics.end(),
        [](const Diagnostic &d) { return d.severity == Severity::Error; });

    std::ostringstream line;
    line << label << (accepted ? " accept " : " reject ")
         << (error != result.diagnostics.end() ? error->code : "-");
    if (accepted)
        line << ' ' << std::hex << std::setw(16) << std::setfill('0')
             << fnv1a(renderPlan(lower(mutant, kChannels)));
    line << '\n';
    return line.str();
}

/** Read a whole file; the caller asserts it opened. */
std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Call @p visit(label, mutant) for every mutant of every corpus file,
 * in the order mutants.golden lists them.
 */
template <typename Visit>
void
forEachMutant(Visit &&visit)
{
    for (const auto &path : corpusFiles()) {
        const Program program = parse(readFile(path));
        const std::string stem = path.stem().string();

        for (std::size_t s = 0; s < program.statements.size(); ++s) {
            const std::string at = stem + ":" + std::to_string(s + 1);
            for (std::size_t p = 0;
                 p < program.statements[s].params.size(); ++p) {
                for (double value : kMutantValues) {
                    Program mutant = program;
                    mutant.statements[s].params[p] = value;
                    std::ostringstream label;
                    label << at << " p" << p << "=" << value;
                    visit(label.str(), mutant);
                }
            }
            if (program.statements[s].isOut)
                continue;
            for (const auto &info : standardAlgorithms()) {
                Program mutant = program;
                mutant.statements[s].algorithm = info.name;
                visit(at + " alg=" + info.name, mutant);
            }
        }
    }
}

/** Compare @p actual with the golden at @p path, or rewrite it. */
void
expectGolden(const std::filesystem::path &path, const std::string &actual)
{
    if (std::getenv("SW_UPDATE_GOLDENS") != nullptr) {
        std::filesystem::create_directories(path.parent_path());
        std::ofstream out(path);
        ASSERT_TRUE(out) << path;
        out << actual;
        return;
    }
    ASSERT_TRUE(std::filesystem::exists(path))
        << path << " missing — regenerate with SW_UPDATE_GOLDENS=1";
    EXPECT_EQ(actual, readFile(path));
}

TEST(AnalyzeCorpus, MutantVerdictsArePinned)
{
    ASSERT_GE(corpusFiles().size(), 20u) << "corpus went missing";
    std::string actual;
    forEachMutant([&](const std::string &label, const Program &mutant) {
        actual += verdictLine(label, mutant);
    });
    expectGolden(dataDir() / "verdicts" / "mutants.golden", actual);
}

// ---------------------------------------------------------------------
// The analyzer's whole output: renderText and renderJson of every
// tests/data/*.il file and of every shipped wake condition as
// compiled (BM_AnalyzeAllApps's units), and an FNV-1a digest of
// renderJson for every mutant above. Pins diagnostic order, warnings
// on programs that also have errors, per-statement costs of
// duplicates and planHash. Regenerate with SW_UPDATE_GOLDENS=1.

TEST(AnalyzeCorpus, AnalysisOutputIsPinned)
{
    std::string actual;
    auto render = [&](const std::string &name, const Program &program,
                      const std::vector<ChannelInfo> &channels) {
        const AnalysisResult result = analyze(program, channels);
        actual += "== " + name + "\n" + renderText(result, name) +
                  renderJson(result, name) + "\n";
    };
    for (const auto &path : corpusFiles())
        render(path.filename().string(), parse(readFile(path)),
               kChannels);
    for (const auto &app : apps::allApps())
        render("app:" + app->name(), app->wakeCondition().compile(),
               app->channels());
    render("predefined:significantMotion",
           apps::significantMotionCondition().compile(),
           core::accelerometerChannels());
    render("predefined:significantSound",
           apps::significantSoundCondition().compile(),
           core::audioChannels());

    std::size_t mutants = 0;
    forEachMutant([&](const std::string &label, const Program &mutant) {
        std::ostringstream line;
        line << label << ' ' << std::hex << std::setw(16)
             << std::setfill('0')
             << fnv1a(renderJson(analyze(mutant, kChannels), label))
             << '\n';
        actual += line.str();
        ++mutants;
    });
    EXPECT_EQ(mutants, 2486u);
    expectGolden(dataDir() / "analysis" / "analysis.golden", actual);
}

// ---------------------------------------------------------------------
// analyze() lowers in its legality walk: its plan is the one lower()
// returns with the same options, and empty and unsealed when the
// program has an error.

/** True when analyze(@p program).plan is lower(@p program). */
bool
analyzedPlanIsLowered(const std::string &name, const Program &program,
                      const std::vector<ChannelInfo> &channels)
{
    bool legal = true;
    for (const bool dedupe : {true, false}) {
        const LowerOptions options{dedupe};
        const AnalysisResult result = analyze(program, channels, options);
        legal = result.ok();
        if (!legal) {
            EXPECT_EQ(result.plan.nodeCount(), 0u) << name;
            EXPECT_FALSE(result.plan.sealed()) << name;
            EXPECT_NE(renderJson(result, name).find("\"planHash\":\"0\""),
                      std::string::npos)
                << name;
            EXPECT_THROW(lower(program, channels, options), ParseError)
                << name;
            continue;
        }
        const ExecutionPlan lowered = lower(program, channels, options);
        EXPECT_EQ(renderPlan(result.plan), renderPlan(lowered)) << name;
        EXPECT_EQ(result.plan.sealedHash, lowered.sealedHash) << name;
        EXPECT_NE(result.plan.sealedHash, 0u) << name;
        EXPECT_EQ(write(result.plan.toProgram()),
                  write(lowered.toProgram()))
            << name;
    }
    return legal;
}

TEST(AnalyzeCorpus, AnalyzedPlanIsWhatLowerReturns)
{
    std::size_t legal = 0;
    std::size_t illegal = 0;
    auto check = [&](const std::string &name, const Program &program,
                     const std::vector<ChannelInfo> &channels) {
        ++(analyzedPlanIsLowered(name, program, channels) ? legal
                                                          : illegal);
    };
    for (const auto &path : corpusFiles())
        check(path.filename().string(), parse(readFile(path)), kChannels);
    for (const auto &app : apps::allApps())
        check(app->name(), app->wakeCondition().compile(),
              app->channels());
    check("gesture", apps::makeGestureApp()->wakeCondition().compile(),
          apps::makeGestureApp()->channels());
    check("floors", apps::makeFloorsApp()->wakeCondition().compile(),
          apps::makeFloorsApp()->channels());
    check("significantMotion",
          apps::significantMotionCondition().compile(),
          core::accelerometerChannels());
    check("significantSound", apps::significantSoundCondition().compile(),
          core::audioChannels());
    forEachMutant([&](const std::string &label, const Program &mutant) {
        check(label, mutant, kChannels);
    });
    EXPECT_GT(legal, 100u);
    EXPECT_GT(illegal, 100u);
}

} // namespace
} // namespace sidewinder::il
