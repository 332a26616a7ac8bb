/**
 * @file
 * Abstract syntax tree for the Sidewinder intermediate language.
 *
 * The IL is the textual dataflow program the sensor manager generates
 * from a developer's ProcessingPipeline and ships to the sensor hub
 * (Section 3.3 and Figure 2c of the paper), e.g.:
 *
 *     ACC_X -> movingAvg(id=1, params={10});
 *     ACC_Y -> movingAvg(id=2, params={10});
 *     ACC_Z -> movingAvg(id=3, params={10});
 *     1,2,3 -> vectorMagnitude(id=4);
 *     4 -> minThreshold(id=5, params={15});
 *     5 -> OUT;
 *
 * The IL is the only coupling between the phone-side API and the hub
 * runtime, which is what makes the hub hardware swappable.
 */

#ifndef SIDEWINDER_IL_AST_H
#define SIDEWINDER_IL_AST_H

#include <string>
#include <vector>

namespace sidewinder::il {

/** Identifier of an algorithm instance within a program. */
using NodeId = int;

/** One input of a statement: a sensor channel or an earlier node. */
struct SourceRef
{
    /** What the reference denotes. */
    enum class Kind { Channel, Node };

    Kind kind;
    /** Channel name (e.g. "ACC_X") when kind == Channel. */
    std::string channel;
    /** Producing node id when kind == Node. */
    NodeId node = 0;

    /** Construct a reference to a sensor channel. */
    static SourceRef
    makeChannel(std::string name)
    {
        return SourceRef{Kind::Channel, std::move(name), 0};
    }

    /** Construct a reference to an earlier algorithm instance. */
    static SourceRef
    makeNode(NodeId id)
    {
        return SourceRef{Kind::Node, {}, id};
    }

    bool
    operator==(const SourceRef &other) const
    {
        return kind == other.kind && channel == other.channel &&
               node == other.node;
    }
};

/**
 * One IL statement: inputs feeding either an algorithm instance or the
 * terminal OUT sink.
 */
struct Statement
{
    /** Data sources, in positional order. */
    std::vector<SourceRef> inputs;
    /** True for the terminal "n -> OUT;" statement. */
    bool isOut = false;
    /** Algorithm name; empty when isOut. */
    std::string algorithm;
    /** Instance id assigned by the sensor manager; 0 when isOut. */
    NodeId id = 0;
    /** Numeric parameters; empty when the algorithm takes none. */
    std::vector<double> params;
    /**
     * 1-based source position of the statement's first token when it
     * came from parse(); 0 when the statement was built
     * programmatically. Because write() emits one statement per line,
     * consumers fall back to "statement index + 1" for unset lines —
     * see statementSpan(). Excluded from operator== so write/parse
     * round trips compare equal.
     */
    int line = 0;
    /** 1-based source column; 0 when built programmatically. */
    int column = 0;

    bool
    operator==(const Statement &other) const
    {
        return inputs == other.inputs && isOut == other.isOut &&
               algorithm == other.algorithm && id == other.id &&
               params == other.params;
    }
};

/** A complete wake-up condition program. */
struct Program
{
    std::vector<Statement> statements;

    bool
    operator==(const Program &other) const
    {
        return statements == other.statements;
    }
};

/** A resolved 1-based line:column source position. */
struct SourceSpan
{
    int line = 0;
    int column = 0;
};

/**
 * Best-available span of statement @p index of a program: the parser's
 * recorded position when present, otherwise the position the statement
 * would occupy in write() output (one statement per line). Never 0:0.
 */
SourceSpan statementSpan(const Statement &stmt, std::size_t index);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_AST_H
