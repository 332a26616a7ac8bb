#include "il/dot.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "il/writer.h"

namespace sidewinder::il {

std::string
toDot(const Program &program, const std::string &name)
{
    std::ostringstream out;
    out << "digraph " << name << " {\n";
    out << "    rankdir=TB;\n";

    // Channel boxes (deduplicated by name).
    std::map<std::string, std::string> channel_ids;
    for (const auto &stmt : program.statements) {
        for (const auto &src : stmt.inputs) {
            if (src.kind != SourceRef::Kind::Channel)
                continue;
            if (channel_ids.count(src.channel))
                continue;
            const std::string id =
                "ch" + std::to_string(channel_ids.size());
            channel_ids[src.channel] = id;
            out << "    " << id << " [shape=box, label=\""
                << src.channel << "\"];\n";
        }
    }

    // Algorithm nodes and the OUT sink.
    for (const auto &stmt : program.statements) {
        if (stmt.isOut) {
            out << "    OUT [shape=doublecircle];\n";
            continue;
        }
        out << "    n" << stmt.id << " [label=\"" << stmt.algorithm;
        if (!stmt.params.empty()) {
            out << "(";
            for (std::size_t i = 0; i < stmt.params.size(); ++i) {
                if (i > 0)
                    out << ",";
                out << writeParam(stmt.params[i]);
            }
            out << ")";
        }
        out << "\"];\n";
    }

    // Edges.
    for (const auto &stmt : program.statements) {
        std::string target = stmt.isOut ? "OUT" : "n";
        if (!stmt.isOut)
            target += std::to_string(stmt.id);
        for (const auto &src : stmt.inputs) {
            if (src.kind == SourceRef::Kind::Channel)
                out << "    " << channel_ids.at(src.channel);
            else
                out << "    n" << src.node;
            out << " -> " << target << ";\n";
        }
    }

    out << "}\n";
    return out.str();
}

std::string
toDot(const ExecutionPlan &plan, const std::string &name)
{
    std::ostringstream out;
    out << "digraph " << name << " {\n";
    out << "    rankdir=TB;\n";

    // Only channels the plan actually reads get boxes.
    std::vector<bool> channel_used(plan.channels.size(), false);
    for (std::int32_t ref : plan.inputRefs)
        if (ref < 0)
            channel_used[static_cast<std::size_t>(-ref - 1)] = true;
    for (std::size_t i = 0; i < plan.channels.size(); ++i)
        if (channel_used[i])
            out << "    ch" << i << " [shape=box, label=\""
                << plan.channels[i].name << "\"];\n";

    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        out << "    n" << i << " [label=\"" << plan.algorithms[i];
        if (!plan.params[i].empty()) {
            out << "(";
            for (std::size_t p = 0; p < plan.params[i].size(); ++p) {
                if (p > 0)
                    out << ",";
                out << writeParam(plan.params[i][p]);
            }
            out << ")";
        }
        char rate[40];
        std::snprintf(rate, sizeof rate, "%g", plan.invokeRateHz[i]);
        out << "\\n@ " << rate << " Hz\"];\n";
    }
    out << "    OUT [shape=doublecircle];\n";

    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        const std::int32_t *refs = plan.inputsOf(i);
        for (std::uint32_t k = 0; k < plan.inputCounts[i]; ++k) {
            if (refs[k] >= 0)
                out << "    n" << refs[k];
            else
                out << "    ch" << (-refs[k] - 1);
            out << " -> n" << i << ";\n";
        }
    }
    out << "    n" << plan.outNode << " -> OUT;\n";

    out << "}\n";
    return out.str();
}

} // namespace sidewinder::il
