/**
 * @file
 * Unit tests for the intermediate language: writer output (Figure 2c
 * of the paper), lexer/parser round trips, and the validator.
 */

#include <gtest/gtest.h>

#include "il/algorithm_info.h"
#include "il/ast.h"
#include "il/lexer.h"
#include "il/parser.h"
#include "il/validate.h"
#include "il/writer.h"
#include "support/error.h"

namespace sidewinder::il {
namespace {

/** The significant-motion program of Figure 2 of the paper. */
Program
significantMotionProgram()
{
    Program p;
    for (int axis = 0; axis < 3; ++axis) {
        Statement s;
        const char *names[] = {"ACC_X", "ACC_Y", "ACC_Z"};
        s.inputs = {SourceRef::makeChannel(names[axis])};
        s.algorithm = "movingAvg";
        s.id = axis + 1;
        s.params = {10.0};
        p.statements.push_back(s);
    }
    Statement vm;
    vm.inputs = {SourceRef::makeNode(1), SourceRef::makeNode(2),
                 SourceRef::makeNode(3)};
    vm.algorithm = "vectorMagnitude";
    vm.id = 4;
    p.statements.push_back(vm);

    Statement thr;
    thr.inputs = {SourceRef::makeNode(4)};
    thr.algorithm = "minThreshold";
    thr.id = 5;
    thr.params = {15.0};
    p.statements.push_back(thr);

    Statement out;
    out.inputs = {SourceRef::makeNode(5)};
    out.isOut = true;
    p.statements.push_back(out);
    return p;
}

std::vector<ChannelInfo>
accelChannels()
{
    return {{"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}};
}

TEST(Writer, MatchesFigure2c)
{
    const std::string expected =
        "ACC_X -> movingAvg(id=1, params={10});\n"
        "ACC_Y -> movingAvg(id=2, params={10});\n"
        "ACC_Z -> movingAvg(id=3, params={10});\n"
        "1,2,3 -> vectorMagnitude(id=4);\n"
        "4 -> minThreshold(id=5, params={15});\n"
        "5 -> OUT;\n";
    EXPECT_EQ(write(significantMotionProgram()), expected);
}

TEST(Writer, ParamFormatting)
{
    EXPECT_EQ(writeParam(10.0), "10");
    EXPECT_EQ(writeParam(-3.0), "-3");
    EXPECT_EQ(writeParam(0.25), "0.25");
    // Integers below 1e15 in magnitude print as integers, everything
    // else as %.17g (the strings a precision(17) stream printed).
    EXPECT_EQ(writeParam(-0.0), "0");
    EXPECT_EQ(writeParam(999999999999999.0), "999999999999999");
    EXPECT_EQ(writeParam(-999999999999999.0), "-999999999999999");
    EXPECT_EQ(writeParam(1e15), "1000000000000000");
    EXPECT_EQ(writeParam(0.1), "0.10000000000000001");
    EXPECT_EQ(writeParam(1.0 / 3.0), "0.33333333333333331");
    EXPECT_EQ(writeParam(5e-324), "4.9406564584124654e-324");
    EXPECT_EQ(writeParam(1e300), "1.0000000000000001e+300");
}

TEST(Writer, StatementWithoutInputsThrows)
{
    Statement s;
    s.algorithm = "movingAvg";
    s.id = 1;
    EXPECT_THROW(write(Program{{s}}), ConfigError);
}

TEST(Parser, RoundTripsFigure2c)
{
    const Program original = significantMotionProgram();
    EXPECT_EQ(parse(write(original)), original);
}

TEST(Parser, HandlesCommentsAndWhitespace)
{
    const Program p = parse("# a comment\n"
                            "  ACC_X -> movingAvg(id=1, params={10});\n"
                            "\t1 -> OUT; # trailing\n");
    ASSERT_EQ(p.statements.size(), 2u);
    EXPECT_EQ(p.statements[0].algorithm, "movingAvg");
    EXPECT_TRUE(p.statements[1].isOut);
}

TEST(Parser, ParsesFloatAndNegativeParams)
{
    const Program p = parse(
        "ACC_Y -> bandThreshold(id=1, params={-6.75,-3.75});\n"
        "1 -> OUT;\n");
    ASSERT_EQ(p.statements[0].params.size(), 2u);
    EXPECT_DOUBLE_EQ(p.statements[0].params[0], -6.75);
    EXPECT_DOUBLE_EQ(p.statements[0].params[1], -3.75);
}

TEST(Parser, ParsesEmptyParamList)
{
    const Program p =
        parse("ACC_X -> movingAvg(id=1, params={});\n1 -> OUT;\n");
    EXPECT_TRUE(p.statements[0].params.empty());
}

TEST(Parser, ErrorsCarryLocation)
{
    try {
        parse("ACC_X -> movingAvg(id=1, params={10})\n1 -> OUT;\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_NE(std::string(e.what()).find("1:"), std::string::npos);
    }
}

TEST(Parser, RejectsGarbage)
{
    EXPECT_THROW(parse("@@@"), ParseError);
    EXPECT_THROW(parse("ACC_X ->"), ParseError);
    EXPECT_THROW(parse("ACC_X -> movingAvg(identity=1);\n"),
                 ParseError);
    EXPECT_THROW(parse("-> movingAvg(id=1);\n"), ParseError);
}

TEST(Lexer, ArrowVersusMinus)
{
    const auto tokens = lex("1 -> x(-2)");
    EXPECT_EQ(tokens[0].type, TokenType::Number);
    EXPECT_EQ(tokens[1].type, TokenType::Arrow);
    EXPECT_EQ(tokens[2].type, TokenType::Identifier);
    EXPECT_EQ(tokens[4].type, TokenType::Number);
    EXPECT_EQ(tokens[4].text, "-2");
}

TEST(Validate, AcceptsFigure2c)
{
    const auto streams =
        validate(significantMotionProgram(), accelChannels());
    EXPECT_EQ(streams.size(), 5u);
    EXPECT_EQ(streams.at(1).kind, ValueKind::Scalar);
    EXPECT_DOUBLE_EQ(streams.at(4).fireRateHz, 50.0);
}

TEST(Validate, RejectsEmptyProgram)
{
    EXPECT_THROW(validate(Program{}, accelChannels()), ParseError);
}

TEST(Validate, RejectsUnknownChannel)
{
    EXPECT_THROW(
        validate(parse("GYRO_X -> movingAvg(id=1, params={10});\n"
                       "1 -> OUT;\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsUnknownAlgorithm)
{
    EXPECT_THROW(
        validate(parse("ACC_X -> quantumSort(id=1);\n1 -> OUT;\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsForwardReference)
{
    EXPECT_THROW(
        validate(parse("2 -> movingAvg(id=1, params={10});\n"
                       "ACC_X -> movingAvg(id=2, params={10});\n"
                       "1 -> OUT;\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsDuplicateIds)
{
    EXPECT_THROW(
        validate(parse("ACC_X -> movingAvg(id=1, params={10});\n"
                       "ACC_Y -> movingAvg(id=1, params={10});\n"
                       "1 -> OUT;\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsMissingOut)
{
    EXPECT_THROW(
        validate(parse("ACC_X -> movingAvg(id=1, params={10});\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsDanglingNode)
{
    EXPECT_THROW(
        validate(parse("ACC_X -> movingAvg(id=1, params={10});\n"
                       "ACC_Y -> movingAvg(id=2, params={10});\n"
                       "1 -> OUT;\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsStatementsAfterOut)
{
    EXPECT_THROW(
        validate(parse("ACC_X -> movingAvg(id=1, params={10});\n"
                       "1 -> OUT;\n"
                       "ACC_Y -> movingAvg(id=2, params={10});\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsKindMismatch)
{
    // fft needs a frame input, not a raw scalar channel.
    EXPECT_THROW(validate(parse("ACC_X -> fft(id=1);\n1 -> OUT;\n"),
                          accelChannels()),
                 ParseError);
}

TEST(Validate, RejectsNonPowerOfTwoFft)
{
    EXPECT_THROW(
        validate(parse("ACC_X -> window(id=1, params={100});\n"
                       "1 -> fft(id=2);\n"
                       "2 -> spectrum(id=3);\n"
                       "3 -> mean(id=4);\n"
                       "4 -> OUT;\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, RejectsCutoffAboveNyquist)
{
    EXPECT_THROW(
        validate(parse("ACC_X -> window(id=1, params={32});\n"
                       "1 -> lowPass(id=2, params={30});\n"
                       "2 -> mean(id=3);\n"
                       "3 -> OUT;\n"),
                 accelChannels()),
        ParseError);
}

TEST(Validate, WindowChangesRateAndFrameSize)
{
    const auto streams = validate(
        parse("ACC_X -> window(id=1, params={32,0,16});\n"
              "1 -> mean(id=2);\n"
              "2 -> OUT;\n"),
        accelChannels());
    EXPECT_EQ(streams.at(1).kind, ValueKind::Frame);
    EXPECT_EQ(streams.at(1).frameSize, 32u);
    EXPECT_DOUBLE_EQ(streams.at(1).fireRateHz, 50.0 / 16.0);
    EXPECT_DOUBLE_EQ(streams.at(1).baseRateHz, 50.0);
    EXPECT_EQ(streams.at(2).kind, ValueKind::Scalar);
    EXPECT_EQ(streams.at(2).frameSize, 0u);
}

TEST(Validate, SpectralChainCarriesFftSize)
{
    const auto streams = validate(
        parse("AUDIO -> window(id=1, params={256});\n"
              "1 -> fft(id=2);\n"
              "2 -> spectrum(id=3);\n"
              "3 -> dominantFreqHz(id=4);\n"
              "4 -> OUT;\n"),
        {{"AUDIO", 4000.0}});
    EXPECT_EQ(streams.at(2).fftSize, 256u);
    EXPECT_EQ(streams.at(3).frameSize, 129u);
}

TEST(Validate, RejectsSpectralFeatureWithoutFft)
{
    EXPECT_THROW(
        validate(parse("AUDIO -> window(id=1, params={256});\n"
                       "1 -> dominantFreqHz(id=2);\n"
                       "2 -> OUT;\n"),
                 {{"AUDIO", 4000.0}}),
        ParseError);
}

TEST(AlgorithmInfo, TableIsConsistent)
{
    for (const auto &info : standardAlgorithms()) {
        EXPECT_FALSE(info.name.empty());
        EXPECT_GE(info.maxInputs, info.minInputs);
        EXPECT_GE(info.maxParams, info.minParams);
        EXPECT_GT(info.cyclesPerUnit, 0.0) << info.name;
        EXPECT_EQ(findAlgorithm(info.name), &info);
    }
    EXPECT_EQ(findAlgorithm("quantumSort"), nullptr);
}

} // namespace
} // namespace sidewinder::il
